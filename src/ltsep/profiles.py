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


# Profile.symbol escapes these characters inside a letter
_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,", "|": "\\|"})


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
        """Render as a string usable as an alphabet symbol.

        Letters are joined by ',' and the two windows by '|'; a '\\', ','
        or '|' inside a letter is escaped with '\\', so that distinct
        profiles get distinct names.
        """
        return "%s|%s" % (
            ",".join([a.translate(_ESCAPES) for a in self.left]),
            ",".join([a.translate(_ESCAPES) for a in self.right]),
        )


@dataclass(frozen=True)
class CappedImage:
    """Profile-occurrence counts of a word, each capped at threshold d.

    counts maps Profile -> int in 1..d; zero entries are absent.
    """

    k: int
    d: int
    counts: object  # immutable: frozenset of (Profile, count) pairs

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


def capped_image(w, k, d):
    """Occurrence counts of each profile in w, capped at d.

    Counts the (left, right) window slices in one pass and builds one
    Profile per distinct pair.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    w = tuple(w)
    kl, kr = split_width(k)
    raw = {}
    for x in range(len(w)):
        pair = (w[max(0, x - kl):x], w[x:x + kr])
        raw[pair] = raw.get(pair, 0) + 1
    return CappedImage(
        k, d, frozenset((Profile(*pair, k), min(d, c)) for pair, c in raw.items())
    )


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


def annotate(nfa, i, f, k, state_budget):
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
    order = list(init)
    index = {s: n for n, s in enumerate(init)}
    transitions = set()
    symtab = {}
    queue = deque(init)
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
                symtab.setdefault(sym, prof)
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
    fs = set(f)
    fset = frozenset(index[st] for st in order if st[0] in fs and st[2] == ())
    iset = frozenset(range(len(init)))
    out_alphabet = tuple(sorted(symtab))
    ann_nfa = Nfa(len(order), out_alphabet, frozenset(transitions))
    return Annotation(ann_nfa, iset, fset, symtab)


# ---------------------------------------------------------------------------
# Sliding-window signature machinery: an explicit deterministic view of the
# capped image, used by the brute-force oracle, the signature probe, separator
# membership and the explicit separator automaton.  Independent of the
# annotation transform above.  A walk works on interned profiles: its Windows
# numbers the (left, right) window pairs met, and capped counts are a tuple of
# d bitmasks over those numbers, so that the counts of a state are a few
# ints.  A walk state is (state, buffer, counts): the buffer holds the last
# <= kl+kr letters read, and flush reads the trailing positions off it.
# Walks over an automaton explore each state's successors in Nfa.out's
# sorted order, so a walk cut by its budget stops at the same place in
# every process, whatever the hash seed.  The decision engine keeps counts
# throughout; signatures take their frozenset-of-(Profile, count) form
# (Windows.signature, language_signatures) only for the independent oracle
# and the tests.


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

    def flush(self, buf, counts):
        """Count the trailing positions, whose right windows are truncated,
        of a word ending in buf, buf as step leaves it: the word itself when
        it has at most kl+kr letters, else its last kl+kr."""
        kl, kr = self.kl, self.kr
        for x in range(max(0, len(buf) - kr + 1), len(buf)):
            counts = self.bump(counts, self.bit(buf[max(0, x - kl):x], buf[x:x + kr]))
        return counts

    def word_counts(self, w):
        """The counts of word w, or None when some window pair of w has no
        number yet, so that no counts this Windows has produced hold it.

        Reads the numbering without extending it: the window pairs of
        position x are w[x-kl:x] and w[x:x+kr], as step and flush form them.
        """
        kl, kr = self.kl, self.kr
        numbers = self._numbers
        counts = self.empty
        for x in range(len(w)):
            n = numbers.get((w[max(0, x - kl):x], w[x:x + kr]))
            if n is None:
                return None
            counts = self.bump(counts, 1 << n)
        return counts

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


def window_walk(out, starts, win, budget, keep=None):
    """Breadth-first walk over (state, window buffer, capped counts).

    out maps a state to its (letter, successor) pairs, explored in that
    order, and win is the walk's Windows; the walk is finite because
    counts are capped and the buffer keeps the last <= kl+kr letters, from
    which win.flush counts the trailing positions.  Yields (src, a, dst,
    new) for each explored edge, first (None, None, st, True) for each
    start state; new says whether dst is reached for the first time.  A
    state whose counts fail keep is pruned: not explored, and an edge into
    it is yielded as (src, a, None, False).  Raises AnnotationBudgetError
    instead of exceeding budget states.
    """
    step = win.step
    seen = set()
    queue = deque()
    for q0 in set(starts):
        st = (q0, (), win.empty)
        seen.add(st)
        queue.append(st)
        yield None, None, st, True
    while queue:
        src = queue.popleft()
        q, buf, counts = src
        for (a, q2) in out.get(q, ()):
            nbuf, ncounts = step(buf, counts, a)
            dst = (q2, nbuf, ncounts)
            if dst in seen:
                yield src, a, dst, False
                continue
            if keep is not None and not keep(ncounts):
                yield src, a, None, False
                continue
            if len(seen) >= budget:
                raise AnnotationBudgetError(
                    "signature exploration exceeded %d states" % budget
                )
            seen.add(dst)
            queue.append(dst)
            yield src, a, dst, True


def language_counts(nfa, i, f, win, state_budget):
    """The flushed counts, in win's numbering, of all words of L(nfa, i, f):
    one unpruned window walk.  Raises AnnotationBudgetError past the budget.
    """
    fset = set(f)
    return {
        win.flush(buf, counts)
        for _src, _a, (q, buf, counts), new in window_walk(
            nfa.out(), i, win, state_budget
        )
        if new and q in fset
    }


def language_signatures(nfa, i, f, k, d, state_budget=500_000):
    """All capped-image signatures of words of L(nfa, i, f).

    Returns a set of frozenset signatures.  Raises AnnotationBudgetError past
    the budget.
    """
    win = Windows(k, d)
    return {win.signature(c) for c in language_counts(nfa, i, f, win, state_budget)}
