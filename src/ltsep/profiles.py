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
# capped image, used by the brute-force oracle, the signature probe and the
# explicit separator automaton.  Independent of the annotation transform above.


def _resolved_profile(buf, pos, k):
    kl, kr = split_width(k)
    left = buf[max(0, pos - kl):pos]
    right = buf[pos:pos + kr]
    return Profile(left, right, k)


def window_step(buf, counts, a, k, d):
    """Advance the sliding window by one letter.

    buf holds the last <= kl+kr letters already read; counts is a frozenset
    signature of capped profile counts resolved so far.  Returns (buf', counts').
    """
    kl, kr = split_width(k)
    w_len = kl + kr
    nbuf = (buf + (a,))[-w_len:]
    cdict = dict(counts)
    # a position resolves once its full right window has been read
    pos = len(nbuf) - kr
    if pos >= 0:
        p = _resolved_profile(nbuf, pos, k)
        cdict[p] = min(d, cdict.get(p, 0) + 1)
    return nbuf, frozenset(cdict.items())


def window_flush(buf, counts, k, d, total_len):
    """Resolve the trailing positions whose right windows are truncated."""
    kl, kr = split_width(k)
    cdict = dict(counts)
    n = total_len
    lo = max(0, n - kr + 1)
    for x in range(lo, n):
        pos = x - (n - len(buf))
        p = Profile(
            buf[max(0, pos - kl):pos],
            buf[pos:min(pos + kr, len(buf))],
            k,
        )
        cdict[p] = min(d, cdict.get(p, 0) + 1)
    return frozenset(cdict.items())


def signature_of(w, k, d):
    """The capped image of w as a canonical frozenset signature."""
    return frozenset(capped_image(w, k, d).counts)


def out_edges(nfa):
    """Map each state of nfa to its list of (letter, successor) pairs."""
    delta = {}
    for (p, a, q) in nfa.transitions:
        delta.setdefault(p, []).append((a, q))
    return delta


def window_walk(delta, starts, k, d, budget, keep=None):
    """Breadth-first walk over (state, window buffer, capped counts, fill).

    delta maps a state to its (letter, successor) pairs; the walk is finite
    because counts are capped and the fill degree stops at the window width
    (past it the flush arithmetic no longer depends on the length).  Yields
    (src, a, dst, new) for each explored edge, first (None, None, st, True)
    for each start state; new says whether dst is reached for the first
    time.  New states whose counts fail keep are dropped.  Raises
    AnnotationBudgetError instead of exceeding budget states.
    """
    w_len = sum(split_width(k))
    seen = set()
    queue = deque()
    for q0 in set(starts):
        st = (q0, (), frozenset(), 0)
        seen.add(st)
        queue.append(st)
        yield None, None, st, True
    while queue:
        src = queue.popleft()
        q, buf, counts, fill = src
        for (a, q2) in delta.get(q, ()):
            nbuf, ncounts = window_step(buf, counts, a, k, d)
            dst = (q2, nbuf, ncounts, min(fill + 1, w_len))
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
    fset = set(f)
    return {
        window_flush(buf, counts, k, d, fill)
        for _src, _a, (q, buf, counts, fill), new in window_walk(
            out_edges(nfa), i, k, d, state_budget
        )
        if new and q in fset
    }
