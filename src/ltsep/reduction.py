"""Reduction of LT/LTT separation to window width 1.

In the paper's terms an inseparability pattern is a row of blocks, each a
word triple (loop, middle, loop), where consecutive blocks share their loop
word and both languages run the same blocks, counted equally up to the
threshold.  The reduced alphabet has one letter per block class, read off the
transition semigroup of the useful part (`monoid.transition_semigroup`,
whose elements carry shortlex-least words):

- a loop label D is the nonempty diagonal of an idempotent element, and its
  loop word is the word of the first element whose diagonal holds D;
- a middle is an element s, or the identity with the empty word;
- the letter (kind, D_l, s, D_r) carries the pairs (p, q) of s with p on D_l
  and q on D_r.  A prefix letter ('p') takes p in I instead of p on D_l, a
  suffix letter ('s') q in F instead of q on D_r, a weak letter ('w') both.

A reduced state ("rs", q, D) is state q at loop label D, so consecutive
letters meet exactly when their blocks share a loop word.  Words of the
reduced automaton have the shape (weak) or (prefix)(infix)*(suffix); matched
word pairs decode into a common threshold pattern over the original alphabet
that pumps into word pairs profile-equivalent at any requested width.

Why the labels lose no pattern.  Take a pattern and a loop word v of it,
looping at the states X where the two runs use it.  Some power of v is
idempotent, and an element's idempotent power has a diagonal at least as
large as the element's own, so the label D of that power holds X.  Put D's
loop word in place of v, and each middle's shortlex word in place of the
middle: every run still goes through, since a larger label only adds pairs.
Blocks that were equal stay equal; blocks that become equal add their counts,
and threshold equality (equal, or both >= d) is preserved by addition.  A run
between useful states visits only useful states, so restricting to them
loses no word.  Loops need the semigroup, not the monoid: in the parity pair
the loop at {0, 1} is aa, and aa acts as the identity.
"""

from dataclasses import dataclass

from .automata import Nfa, LangSpec, accepts, reachable, coreachable
from .monoid import MonoidBudgetError, mat_mul, transition_semigroup

# the most useful state pairs the complete reduction takes; past it the
# engine falls back to probes and the pool
USEFUL_PAIR_BUDGET = 13


class SyncBudgetError(RuntimeError):
    """The useful pairs or the transition semigroup exceeded their budget."""


def common_mid(covers, pairs):
    """Word of the first cover whose relation holds every pair, or None.

    covers lists (relation, word) in discovery order, a relation being the
    frozenset of pairs (p, q) with a run p -> q labelled word.
    """
    return next((w for rel, w in covers if pairs <= rel), None)


def _label(states):
    return "[%s]" % ",".join(str(q) for q in sorted(states))


@dataclass(frozen=True)
class SyncSet:
    """One letter of the reduced alphabet: a middle with its loop labels."""

    pairs: frozenset
    kind: str  # 'w' | 'p' | 'i' | 's'
    witness_mid: tuple
    witness_left: object  # tuple | None
    witness_right: object  # tuple | None
    left_set: object  # loop label D_l: frozenset, or None for 'w' and 'p'
    right_set: object  # loop label D_r: frozenset, or None for 'w' and 's'

    def name(self):
        body = ",".join("(%d,%d)" % pq for pq in sorted(self.pairs))
        left = "" if self.left_set is None else _label(self.left_set)
        right = "" if self.right_set is None else _label(self.right_set)
        return "%s:%s{%s}%s" % (self.kind, left, body, right)


@dataclass
class ReducedSpec:
    """The reduced two-language spec plus decoding data."""

    nfa: Nfa
    i1: frozenset
    f1: frozenset
    i2: frozenset
    f2: frozenset
    catalog: dict  # letter symbol -> SyncSet
    origin: LangSpec
    state_tags: list

    def langspec(self):
        return LangSpec(self.nfa, self.i1, self.f1, self.i2, self.f2)


def _blocks(loops, mids, i_all, f_all):
    """The letters over loop labels and middles, first middle first.

    loops maps each loop label to its loop word; mids lists (relation, word).
    A letter keeps the pairs of its middle whose left state lies on D_l (in
    i_all for 'p' and 'w') and whose right state lies on D_r (in f_all for
    's' and 'w'); letters without pairs, and repeats of one kind, pair set
    and labels under a later middle, are dropped.  Each middle's pairs are
    put once into a bucket per (D_l, D_r) their states allow, None standing
    for i_all on the left and f_all on the right, and each letter reads its
    bucket.
    """
    ends = [("w", None, None)]
    ends += [("p", None, dr) for dr in loops]
    ends += [("s", dl, None) for dl in loops]
    ends += [("i", dl, dr) for dl in loops for dr in loops]
    lefts = dict.fromkeys(i_all, (None,))  # state -> the D_l it lies on
    rights = dict.fromkeys(f_all, (None,))  # state -> the D_r it lies on
    for lab in loops:
        for q in lab:
            lefts[q] = lefts.get(q, ()) + (lab,)
            rights[q] = rights.get(q, ()) + (lab,)
    catalog, seen = [], set()
    for rel, mid in mids:
        buckets = {}
        for pq in rel:
            for dl in lefts.get(pq[0], ()):
                for dr in rights.get(pq[1], ()):
                    buckets.setdefault((dl, dr), []).append(pq)
        for kind, dl, dr in ends:
            bucket = buckets.get((dl, dr))
            if bucket:
                pairs = frozenset(bucket)
                if (kind, pairs, dl, dr) not in seen:
                    seen.add((kind, pairs, dl, dr))
                    catalog.append(
                        SyncSet(pairs, kind, mid, loops.get(dl), loops.get(dr), dl, dr)
                    )
    return catalog


def sync_sets(nfa, i1, f1, i2, f2):
    """The reduced alphabet of the complete reduction, and its loop words.

    Returns (catalog: list of SyncSet, loop label -> loop word).  Loop labels
    are the distinct nonempty diagonals of the idempotent elements of the
    semigroup of the useful part, and middles are the identity, then its
    elements (see the module docstring).  Past USEFUL_PAIR_BUDGET pairs
    (p, q) with p reachable from I1 ∪ I2, q co-reachable to F1 ∪ F2 and a
    run p -> q, or past the semigroup budget, SyncBudgetError.
    """
    i_all, f_all = set(i1) | set(i2), set(f1) | set(f2)
    fwd = reachable(nfa, i_all)
    bwd = coreachable(nfa, f_all)
    n_pairs = 0
    for p in sorted(fwd):
        n_pairs += len(reachable(nfa, {p}) & bwd)
        if n_pairs > USEFUL_PAIR_BUDGET:
            raise SyncBudgetError(
                "over %d useful state pairs; reduce the input" % USEFUL_PAIR_BUDGET
            )
    useful = fwd & bwd
    inner = Nfa(nfa.n_states, nfa.alphabet, frozenset(
        t for t in nfa.transitions if t[0] in useful and t[2] in useful
    ))
    try:
        semigroup = transition_semigroup(inner)
    except MonoidBudgetError as exc:
        raise SyncBudgetError(str(exc)) from exc
    covers = [
        (frozenset((p, q) for p in useful for q in useful if m[p] >> q & 1), w)
        for m, w in zip(semigroup.elements, semigroup.words)
    ]
    loops = {}
    for m in semigroup.elements:
        diagonal = frozenset(q for q in useful if m[q] >> q & 1)
        if diagonal and diagonal not in loops and mat_mul(m, m) == m:
            loops[diagonal] = common_mid(covers, frozenset((q, q) for q in diagonal))
    identity = (frozenset((q, q) for q in useful), ())
    return _blocks(loops, [identity] + covers, i_all, f_all), loops


def _assemble(spec, catalog):
    """Wire the reduced automaton from a letter catalog.

    Entry and exit copies of the original initial/final states are kept apart
    so every accepted word has the weak / prefix-infix*-suffix shape; a weak
    pair is kept only when it runs from I to F of one side.
    """
    sides = ((spec.i1, spec.f1), (spec.i2, spec.f2))
    state_ix = {}
    tags = []

    def st(tag):
        if tag not in state_ix:
            state_ix[tag] = len(tags)
            tags.append(tag)
        return state_ix[tag]

    for q in sorted(set(spec.i1) | set(spec.i2)):
        st(("in", q))
    for q in sorted(set(spec.f1) | set(spec.f2)):
        st(("out", q))
    transitions = set()
    used = {}
    for b in catalog:
        sym = b.name()
        for (p, q) in sorted(b.pairs):
            if b.kind == "w" and not any(p in i and q in f for i, f in sides):
                continue
            src = ("in", p) if b.left_set is None else ("rs", p, b.left_set)
            dst = ("out", q) if b.right_set is None else ("rs", q, b.right_set)
            transitions.add((st(src), sym, st(dst)))
            used[sym] = b
    nfa = Nfa(len(tags), tuple(sorted(used)), frozenset(transitions))
    i1 = frozenset(state_ix[("in", q)] for q in spec.i1)
    i2 = frozenset(state_ix[("in", q)] for q in spec.i2)
    f1 = frozenset(state_ix[("out", q)] for q in spec.f1)
    f2 = frozenset(state_ix[("out", q)] for q in spec.f2)
    return ReducedSpec(nfa, i1, f1, i2, f2, used, spec, tags)


def build_reduced(spec):
    """The reduced automaton of the complete reduction."""
    catalog, _loops = sync_sets(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2)
    return _assemble(spec, catalog)


def build_reduced_pool(spec, max_letters=4000):
    """A partial reduced automaton from single-letter loop synchronization.

    For inputs past the budget of the complete reduction: loop labels are
    the sets R_g = {q | g self-loops at q} of single letters g, named by the
    least such g, and middles are single letters and the empty word.  Only
    letters both sides can traverse are kept, the largest pair sets first,
    at most max_letters of them.  Sound for inseparability certificates
    (every letter still decodes to a valid pattern block); incomplete.
    """
    nfa = spec.nfa
    i_all = set(spec.i1) | set(spec.i2)
    f_all = set(spec.f1) | set(spec.f2)
    useful = reachable(nfa, i_all) & coreachable(nfa, f_all)
    use1 = reachable(nfa, spec.i1) & coreachable(nfa, spec.f1)
    use2 = reachable(nfa, spec.i2) & coreachable(nfa, spec.f2)
    ring = {}  # loop letter g -> R_g
    rel = {}  # middle letter a -> its useful pairs
    for (p, a, q) in nfa.transitions:
        if p in useful and q in useful:
            rel.setdefault(a, set()).add((p, q))
            if p == q:
                ring.setdefault(a, set()).add(q)
    loops = {}
    for g in sorted(ring):
        loops.setdefault(frozenset(ring[g]), (g,))
    mids = [(frozenset((q, q) for q in useful), ())]
    mids += [(frozenset(rel[a]), (a,)) for a in sorted(rel)]

    def usable(b, i, f, use):
        if b.kind == "i":
            return any(p in use and q in use for (p, q) in b.pairs)
        return any(
            (b.kind == "s" or p in i) and (b.kind == "p" or q in f)
            for (p, q) in b.pairs
        )

    catalog = [
        b for b in _blocks(loops, mids, i_all, f_all)
        if usable(b, spec.i1, spec.f1, use1) and usable(b, spec.i2, spec.f2, use2)
    ]
    catalog.sort(key=lambda b: (-len(b.pairs), b.name()))
    return _assemble(spec, catalog[:max_letters])


@dataclass
class Decomp:
    """One side's concrete decomposition u0 v1 u1 ... vn un with its run."""

    u_segs: list
    v_segs: list
    states: list  # [q0, r1, ..., rn, qf]

    def word(self, reps):
        out = []
        out.extend(self.u_segs[0])
        for v, u in zip(self.v_segs, self.u_segs[1:]):
            out.extend(v * reps)
            out.extend(u)
        return tuple(out)


@dataclass
class DPattern:
    """Inseparability witness: a shared word, or a counted block pattern."""

    word: object = None  # tuple | None
    prefix_block: object = None  # (u, v_r)
    suffix_block: object = None  # (v_l, u)
    counts: object = None  # dict block-triple -> int in 0..d
    d: int = 1
    decomp1: object = None
    decomp2: object = None
    origin: object = None  # LangSpec


def find_run(nfa, i, f, word):
    """One accepting run (state sequence) of word, or None."""
    layers = [set(i)]
    for a in word:
        layers.append(nfa.step(layers[-1], a))
    finals = layers[-1] & set(f)
    if not finals:
        return None
    cur = sorted(finals)[0]
    run = [cur]
    delta = nfa.delta()
    for x in range(len(word) - 1, -1, -1):
        a = word[x]
        prev = next(
            p for p in sorted(layers[x]) if cur in delta.get((p, a), ())
        )
        run.append(prev)
        cur = prev
    run.reverse()
    return run


def decode_pattern(reduced, w1, w2, d):
    """Decode matched reduced words into a common pattern with decompositions.

    w1, w2 are symbol sequences accepted by the two sides of the reduced
    automaton, with letter counts equal up to threshold d.
    """
    from .profiles import capped_image

    if capped_image(w1, 1, d) != capped_image(w2, 1, d):
        raise ValueError("reduced words do not match at threshold %d" % d)
    cat = reduced.catalog
    for syms, i, f in ((w1, reduced.i1, reduced.f1), (w2, reduced.i2, reduced.f2)):
        if find_run(reduced.nfa, i, f, syms) is None:
            raise ValueError("reduced word not accepted by its side")
    if len(w1) == 1 and cat[w1[0]].kind == "w":
        if tuple(w1) != tuple(w2):
            raise ValueError("weak letters cannot match distinct words")
        return DPattern(word=tuple(cat[w1[0]].witness_mid), d=d, origin=reduced.origin)
    for syms in (w1, w2):
        kinds = [cat[s].kind for s in syms]
        if not (
            len(kinds) >= 2
            and kinds[0] == "p"
            and kinds[-1] == "s"
            and all(k == "i" for k in kinds[1:-1])
        ):
            raise ValueError("reduced word outside the prefix-infix*-suffix shape")
    if w1[0] != w2[0] or w1[-1] != w2[-1]:
        raise ValueError("matched words must share prefix and suffix letters")

    def block_of(sym):
        b = cat[sym]
        return (b.witness_left, tuple(b.witness_mid), b.witness_right)

    bp, bs = cat[w1[0]], cat[w1[-1]]
    prefix_block = (tuple(bp.witness_mid), bp.witness_right)
    suffix_block = (bs.witness_left, tuple(bs.witness_mid))
    counts = {}
    for sym in w1[1:-1]:
        blk = block_of(sym)
        counts[blk] = counts.get(blk, 0) + 1
    counts = {blk: min(d, c) for blk, c in counts.items()}

    def decomp(syms, i, f):
        run = find_run(reduced.nfa, i, f, syms)
        tags = [reduced.state_tags[q] for q in run]
        # tags: ('in', q0), ('rs', r, D)..., ('out', qf)
        states = [tags[0][1]] + [t[1] for t in tags[1:-1]] + [tags[-1][1]]
        u_segs = [tuple(cat[s].witness_mid) for s in syms]
        v_segs = [cat[s].witness_left for s in syms[1:]]
        dec = Decomp(u_segs, v_segs, states)
        _verify_decomp(reduced.origin.nfa, dec)
        return dec

    d1 = decomp(w1, reduced.i1, reduced.f1)
    d2 = decomp(w2, reduced.i2, reduced.f2)
    return DPattern(
        None, prefix_block, suffix_block, counts, d, d1, d2, reduced.origin
    )


def _verify_decomp(nfa, dec):
    """Re-check every segment and loop of a decomposition via accepts."""
    states = dec.states
    for j, u in enumerate(dec.u_segs):
        if not accepts(nfa, {states[j]}, {states[j + 1]}, u):
            raise ValueError("decomposition segment fails to run")
    for j, v in enumerate(dec.v_segs):
        r = states[j + 1]
        if not v or not accepts(nfa, {r}, {r}, v):
            raise ValueError("decomposition loop fails to run")


def pump_pattern(pattern, ell, d):
    """Pump a pattern into a concrete word pair equivalent at width ell.

    Loops are repeated ell*(d+1) times, enough that every width-ell profile
    around and inside the loops reaches the counting threshold on both sides.
    """
    from .profiles import equivalent

    if pattern.word is not None:
        return tuple(pattern.word), tuple(pattern.word)
    reps = max(1, ell * (d + 1))
    w1 = pattern.decomp1.word(reps)
    w2 = pattern.decomp2.word(reps)
    spec = pattern.origin
    if not accepts(spec.nfa, spec.i1, spec.f1, w1):
        raise ValueError("pumped word 1 rejected by its language")
    if not accepts(spec.nfa, spec.i2, spec.f2, w2):
        raise ValueError("pumped word 2 rejected by its language")
    if not equivalent(w1, w2, ell, d):
        raise ValueError("pumped words are not profile-equivalent")
    return w1, w2
