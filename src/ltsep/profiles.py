"""k-profiles, capped profile images, the counting congruence, and the
annotation transform rewriting an automaton over A into one over the
realizable-profile alphabet.

A width-k profile of a position is the pair (left window, right window) with
the left window holding up to floor(k/2) letters before the position and the
right window holding up to k - floor(k/2) letters starting at the position.
"""

from dataclasses import dataclass
from collections import deque

from .automata import Nfa


class AnnotationBudgetError(RuntimeError):
    """The annotation automaton exceeded the configured state budget."""


def split_width(k):
    """(left width, right width) for total window width k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    kl = k // 2
    return kl, k - kl


@dataclass(frozen=True)
class Profile:
    """A (left, right) window pair; right is nonempty for real positions."""

    left: tuple
    right: tuple
    k: int

    def symbol(self):
        """Render as a string usable as an alphabet symbol."""
        return "%s|%s" % (",".join(self.left), ",".join(self.right))


@dataclass(frozen=True)
class CappedImage:
    """Profile-occurrence counts of a word, each capped at threshold d.

    counts maps Profile -> int in 1..d; zero entries are absent.
    """

    k: int
    d: int
    counts: object  # immutable: frozenset of (Profile, count) pairs

    @staticmethod
    def of(k, d, raw_counts):
        capped = frozenset(
            (p, min(d, c)) for p, c in raw_counts.items() if c > 0
        )
        return CappedImage(k, d, capped)

    def as_dict(self):
        return dict(self.counts)


def profile_at(w, x, k):
    """The width-k profile of position x in word w."""
    w = tuple(w)
    if not (0 <= x < len(w)):
        raise ValueError("position %d out of range for word of length %d" % (x, len(w)))
    kl, kr = split_width(k)
    left = w[max(0, x - kl):x]
    right = w[x:min(x + kr, len(w))]
    return Profile(left, right, k)


def profile_word(w, k):
    """The sequence of profiles of all positions of w."""
    w = tuple(w)
    return tuple(profile_at(w, x, k) for x in range(len(w)))


def capped_image(w, k, d):
    """Occurrence counts of each profile in w, capped at d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    raw = {}
    for p in profile_word(w, k):
        raw[p] = raw.get(p, 0) + 1
    return CappedImage.of(k, d, raw)


def equivalent(w1, w2, k, d):
    """Whether w1 and w2 have equal profile counts up to threshold d."""
    return capped_image(w1, k, d) == capped_image(w2, k, d)


@dataclass(frozen=True)
class Annotation:
    """Result of the profile-annotation transform.

    nfa accepts exactly the profile sequences of words of the source language;
    profiles maps each alphabet symbol of nfa back to its Profile.
    """

    nfa: Nfa
    i: frozenset
    f: frozenset
    profiles: object  # dict symbol -> Profile


def project_profile_word(profiles, syms):
    """Recover the original word from a profile word (first right-window letter)."""
    return tuple(profiles[s].right[0] for s in syms)


def annotate(nfa, i, f, k, state_budget=200_000):
    """Rewrite (nfa, i, f) into an automaton over realizable profiles.

    States carry the source state, the committed window of the last <= floor(k/2)
    letters, and a guessed lookahead buffer of the next pending letters; a letter
    of the output automaton is the profile of the current position.  The guessed
    letters are verified as they are consumed; words end only once the buffer is
    drained, and a short right window pins the end of the word (closed flag).
    """
    kl, kr = split_width(k)
    delta = nfa.delta()
    out_by_state = {}
    for (q, a), succs in sorted(delta.items()):
        out_by_state.setdefault(q, []).append((a, succs))
    alphabet = tuple(nfa.alphabet)

    # state: (q, left, buf, closed)
    init = [(q0, (), (), False) for q0 in sorted(set(i))]
    index = {}
    order = []
    for s in init:
        if s not in index:
            index[s] = len(order)
            order.append(s)
    transitions = set()
    symtab = {}
    queue = deque(order)
    while queue:
        st = queue.popleft()
        q, left, buf, closed = st
        src = index[st]
        for (c, succs) in out_by_state.get(q, ()):
            if buf and buf[0] != c:
                continue
            # enumerate right windows consistent with the lookahead buffer
            prs = []
            if closed:
                if buf:
                    prs.append((buf, True))
            else:
                base = buf if buf else (c,)
                # extend base with guessed future letters up to length kr;
                # lengths < kr pin the word end
                pending = [base]
                while pending:
                    pr = pending.pop()
                    if len(pr) <= kr:
                        prs.append((pr, len(pr) < kr))
                        if len(pr) < kr:
                            for g in alphabet:
                                pending.append(pr + (g,))
            for pr, now_closed in prs:
                prof = Profile(left, pr, k)
                sym = prof.symbol()
                if sym not in symtab:
                    symtab[sym] = prof
                new_left = (left + (c,))[-kl:] if kl else ()
                new_buf = pr[1:]
                for q2 in succs:
                    st2 = (q2, new_left, new_buf, now_closed)
                    if st2 not in index:
                        if len(order) >= state_budget:
                            raise AnnotationBudgetError(
                                "annotation exceeded %d states (k=%d)"
                                % (state_budget, k)
                            )
                        index[st2] = len(order)
                        order.append(st2)
                        queue.append(st2)
                    transitions.add((src, sym, index[st2]))
    fset = frozenset(
        index[st] for st in order if st[0] in set(f) and st[2] == ()
    )
    iset = frozenset(index[s] for s in init)
    out_alphabet = tuple(sorted(symtab))
    ann_nfa = Nfa(len(order), out_alphabet, frozenset(transitions))
    return Annotation(ann_nfa, iset, fset, dict(symtab))


# ---------------------------------------------------------------------------
# Sliding-window signature machinery: an explicit deterministic view of the
# capped image, used by the brute-force oracle, the signature probe, separator
# membership and the explicit separator automaton.  Independent of the
# annotation transform above.  A walk works on interned profiles: its Windows
# numbers the (left, right) window pairs met, and capped counts are a tuple of
# d bitmasks over those numbers, so that the counts of a state are a few
# ints.  Signatures take their frozenset-of-(Profile, count) form only where
# they leave a walk (Windows.signature).


def set_bits(mask):
    """The set bits of a nonnegative int, lowest first, each as a power of 2."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class Windows:
    """The sliding-window view of one walk at width k and threshold d.

    Each (left, right) window pair met gets a bit, 1 << (its number).
    Capped counts are a tuple of d bitmasks: level c (from 0) holds the
    profiles counted more than c times, so each level is a subset of the
    one before.  Numbers are assigned in the order pairs are met, so counts
    compare only within one Windows; step remembers what it computed for a
    buffer and a letter.
    """

    def __init__(self, k, d):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.k = k
        self.d = d
        self.kl, self.kr = split_width(k)
        self.empty = (0,) * d
        self._numbers = {}  # (left, right) -> number
        self._pairs = []  # number -> (left, right)
        self._steps = {}  # (buf, a) -> (buf', bit resolved or 0)

    def bit(self, left, right):
        n = self._numbers.get((left, right))
        if n is None:
            n = self._numbers[(left, right)] = len(self._pairs)
            self._pairs.append((left, right))
        return 1 << n

    @staticmethod
    def bump(counts, bit):
        """counts with the profile of bit counted once more, capped at d."""
        for c, level in enumerate(counts):
            if not level & bit:
                return counts[:c] + (level | bit,) + counts[c + 1:]
        return counts

    def step(self, buf, counts, a):
        """Advance the window by one letter: (buf', counts').

        buf holds the last <= kl+kr letters already read; a position's
        profile is counted once its full right window has been read.
        """
        hit = self._steps.get((buf, a))
        if hit is None:
            kl, kr = self.kl, self.kr
            nbuf = (buf + (a,))[-(kl + kr):]
            pos = len(nbuf) - kr
            bit = self.bit(nbuf[max(0, pos - kl):pos], nbuf[pos:]) if pos >= 0 else 0
            hit = self._steps[(buf, a)] = (nbuf, bit)
        nbuf, bit = hit
        return nbuf, (self.bump(counts, bit) if bit else counts)

    def flush(self, buf, counts, total_len):
        """Count the trailing positions, whose right windows are truncated,
        of a word of length total_len (capped at kl+kr) ending in buf."""
        kl, kr = self.kl, self.kr
        n = total_len
        for x in range(max(0, n - kr + 1), n):
            pos = x - (n - len(buf))
            counts = self.bump(counts, self.bit(buf[max(0, pos - kl):pos], buf[pos:pos + kr]))
        return counts

    def counts_of(self, sig):
        """The counts of a frozenset signature at this width and threshold."""
        counts = list(self.empty)
        for p, n in sig:
            bit = self.bit(p.left, p.right)
            for c in range(min(n, self.d)):
                counts[c] |= bit
        return tuple(counts)

    def signature(self, counts):
        """The frozenset-of-(Profile, count) signature of counts."""
        tally = {}
        for level in counts:
            for bit in set_bits(level):
                tally[bit] = tally.get(bit, 0) + 1
        return frozenset(
            (Profile(*self._pairs[bit.bit_length() - 1], self.k), c)
            for bit, c in tally.items()
        )


def signature_of(w, k, d):
    """The capped image of w as a canonical frozenset signature."""
    return frozenset(capped_image(w, k, d).counts)


def out_edges(nfa):
    """Map each state of nfa to its list of (letter, successor) pairs."""
    delta = {}
    for (p, a, q) in nfa.transitions:
        delta.setdefault(p, []).append((a, q))
    return delta


def window_walk(delta, starts, win, budget, keep=None):
    """Breadth-first walk over (state, window buffer, capped counts, fill).

    delta maps a state to its (letter, successor) pairs and win is the
    walk's Windows; the walk is finite because counts are capped and the
    fill degree stops at the window width (past it the flush arithmetic no
    longer depends on the length).  Yields (src, a, dst, new) for each
    explored edge, first (None, None, st, True) for each start state; new
    says whether dst is reached for the first time.  New states whose
    counts fail keep are dropped.  Raises AnnotationBudgetError instead of
    exceeding budget states.
    """
    w_len = win.kl + win.kr
    step = win.step
    seen = set()
    queue = deque()
    for q0 in set(starts):
        st = (q0, (), win.empty, 0)
        seen.add(st)
        queue.append(st)
        yield None, None, st, True
    while queue:
        src = queue.popleft()
        q, buf, counts, fill = src
        nfill = min(fill + 1, w_len)
        for (a, q2) in delta.get(q, ()):
            nbuf, ncounts = step(buf, counts, a)
            dst = (q2, nbuf, ncounts, nfill)
            if dst in seen:
                yield src, a, dst, False
                continue
            if keep is not None and not keep(ncounts):
                continue
            if len(seen) >= budget:
                raise AnnotationBudgetError(
                    "signature exploration exceeded %d states" % budget
                )
            seen.add(dst)
            queue.append(dst)
            yield src, a, dst, True


def language_signatures(nfa, i, f, k, d, state_budget=500_000):
    """All capped-image signatures of words of L(nfa, i, f).

    Returns a set of frozenset signatures.  Raises AnnotationBudgetError past
    the budget.
    """
    win = Windows(k, d)
    fset = set(f)
    ends = {
        win.flush(buf, counts, fill)
        for _src, _a, (q, buf, counts, fill), new in window_walk(
            out_edges(nfa), i, win, state_budget
        )
        if new and q in fset
    }
    return {win.signature(counts) for counts in ends}
