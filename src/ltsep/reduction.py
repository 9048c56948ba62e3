"""Reduction of LT/LTT separation to window width 1.

Letters of the reduced automaton are synchronizable sets of state pairs: a set
T of pairs realizable by one common middle word, optionally with a shared
nonempty loop word at all left states and/or all right states.  Words of the
reduced automaton have the shape (weak) or (prefix)(infix)*(suffix); matched
word pairs decode into a common threshold pattern over the original alphabet
(prefix block, counted middle blocks, suffix block) which pumps into concrete
word pairs that are profile-equivalent at any requested width.

Synchronizable sets are read off the transition semigroup of the useful part
(`monoid.transition_semigroup`), whose elements carry shortlex-least words: a
pair set's middle word is () when every pair is diagonal, otherwise the word of
the first element whose relation holds every pair; a state set's loop is the
word of the first element whose diagonal holds every state.  A run between
useful states visits only useful states, so the restriction loses no word.
Loops need the semigroup, not the monoid: in the parity pair the loop at {0}
is aa, and aa acts as the identity.
"""

from dataclasses import dataclass
from collections import deque
from itertools import combinations

from .automata import Nfa, LangSpec, accepts, reachable, coreachable
from .monoid import MonoidBudgetError, transition_semigroup


class SyncBudgetError(RuntimeError):
    """Candidate enumeration or the transition semigroup exceeded its budget."""


def common_mid(covers, pairs):
    """Word of the first cover whose relation holds every pair, or None.

    covers lists (relation, word) in discovery order, a relation being the
    frozenset of pairs (p, q) with a run p -> q labelled word.
    """
    return next((w for rel, w in covers if pairs <= rel), None)


@dataclass(frozen=True)
class SyncSet:
    """One letter of the reduced alphabet."""

    pairs: frozenset
    kind: str  # 'w' | 'p' | 'i' | 's'
    witness_mid: tuple
    witness_left: object  # tuple | None
    witness_right: object  # tuple | None
    left_set: frozenset  # loop-state label used on the left, when applicable
    right_set: frozenset

    def name(self):
        body = ",".join("(%d,%d)" % pq for pq in sorted(self.pairs))
        return "%s:{%s}" % (self.kind, body)


@dataclass
class ReducedSpec:
    """The reduced two-language spec plus decoding data."""

    nfa: Nfa
    i1: frozenset
    f1: frozenset
    i2: frozenset
    f2: frozenset
    catalog: dict  # letter symbol -> SyncSet
    loop_witness: dict  # frozenset(states) -> loop word
    origin: LangSpec
    state_tags: list

    def langspec(self):
        return LangSpec(self.nfa, self.i1, self.f1, self.i2, self.f2)


def sync_sets(nfa, i1, f1, i2, f2, candidate_budget=8192):
    """Enumerate synchronizable pair sets over the useful part of the automaton.

    Returns (catalog: list of SyncSet, loop_witness dict).  Pairs are
    restricted to (p, q) with p reachable from I1 ∪ I2 and q co-reachable to
    F1 ∪ F2; a single pair's middle word is its shortest labelled path.  After
    the candidate budget check, the semigroup of the useful part is built once
    and answers the rest by lookup (see the module docstring): a pair set's
    middle word is () when every pair is diagonal, else the word of the first
    element holding every pair, and the set is dropped if none does; a state
    set's loop is the word of the first element whose diagonal holds every
    state.  Past either budget, SyncBudgetError.
    """
    fwd = reachable(nfa, set(i1) | set(i2))
    bwd = coreachable(nfa, set(f1) | set(f2))
    succ = {}
    for (p, a, q) in sorted(nfa.transitions):
        succ.setdefault(p, []).append((a, q))
    pair_lang = {}
    for p in sorted(fwd):
        # shortest labelled path from p to each state: one BFS per source
        word_to = {p: ()}
        queue = deque([p])
        while queue:
            r = queue.popleft()
            for (a, q) in succ.get(r, ()):
                if q not in word_to:
                    word_to[q] = word_to[r] + (a,)
                    queue.append(q)
        for q, u in word_to.items():
            if q in bwd:
                pair_lang[(p, q)] = u
    pairs_all = sorted(pair_lang)
    if 2 ** len(pairs_all) > candidate_budget:
        raise SyncBudgetError(
            "2^%d candidate pair-sets exceed budget %d; reduce the input"
            % (len(pairs_all), candidate_budget)
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

    def loop_of(states):
        if states not in loops:
            loops[states] = common_mid(covers, frozenset((q, q) for q in states))
        return loops[states]

    catalog = []
    for size in range(1, len(pairs_all) + 1):
        for combo in combinations(pairs_all, size):
            t = frozenset(combo)
            if size == 1:
                mid = pair_lang[combo[0]]
            elif all(p == q for (p, q) in combo):
                mid = ()
            else:
                mid = common_mid(covers, t)
            if mid is None:
                continue
            lefts = frozenset(p for (p, _q) in combo)
            rights = frozenset(q for (_p, q) in combo)
            vl = loop_of(lefts)
            vr = loop_of(rights)
            catalog.append(SyncSet(t, "w", mid, None, None, lefts, rights))
            if vr is not None:
                catalog.append(SyncSet(t, "p", mid, None, vr, lefts, rights))
            if vl is not None:
                catalog.append(SyncSet(t, "s", mid, vl, None, lefts, rights))
            if vl is not None and vr is not None:
                catalog.append(SyncSet(t, "i", mid, vl, vr, lefts, rights))
    return catalog, {r: w for r, w in loops.items() if w is not None}


def _assemble(spec, catalog, loops):
    """Wire the reduced automaton from a letter catalog.

    Entry and exit copies of the original initial/final states are kept apart
    so every accepted word has the weak / prefix-infix*-suffix shape.
    """
    i_all = set(spec.i1) | set(spec.i2)
    f_all = set(spec.f1) | set(spec.f2)
    state_ix = {}
    tags = []

    def st(tag):
        if tag not in state_ix:
            state_ix[tag] = len(tags)
            tags.append(tag)
        return state_ix[tag]

    for q in sorted(i_all):
        st(("in", q))
    for q in sorted(f_all):
        st(("out", q))
    transitions = set()
    used = {}
    for b in catalog:
        sym = b.name()
        added = False
        if b.kind == "w":
            for (p, q) in sorted(b.pairs):
                for (iset, fset) in ((spec.i1, spec.f1), (spec.i2, spec.f2)):
                    if p in iset and q in fset:
                        transitions.add((st(("in", p)), sym, st(("out", q))))
                        added = True
        elif b.kind == "p":
            for (p, q) in sorted(b.pairs):
                if p in i_all:
                    transitions.add(
                        (st(("in", p)), sym, st(("rs", q, b.right_set)))
                    )
                    added = True
        elif b.kind == "s":
            for (p, q) in sorted(b.pairs):
                if q in f_all and p in b.left_set:
                    transitions.add(
                        (st(("rs", p, b.left_set)), sym, st(("out", q)))
                    )
                    added = True
        elif b.kind == "i":
            for (p, q) in sorted(b.pairs):
                if p in b.left_set:
                    transitions.add(
                        (st(("rs", p, b.left_set)), sym, st(("rs", q, b.right_set)))
                    )
                    added = True
        if added:
            used[sym] = b
    nfa = Nfa(len(tags), tuple(sorted(used)), frozenset(transitions))
    i1 = frozenset(state_ix[("in", q)] for q in spec.i1)
    i2 = frozenset(state_ix[("in", q)] for q in spec.i2)
    f1 = frozenset(state_ix[("out", q)] for q in spec.f1)
    f2 = frozenset(state_ix[("out", q)] for q in spec.f2)
    return ReducedSpec(nfa, i1, f1, i2, f2, used, dict(loops), spec, tags)


def build_reduced(spec, candidate_budget=8192):
    """The full reduced automaton over all synchronizable pair sets."""
    catalog, loops = sync_sets(
        spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2, candidate_budget
    )
    return _assemble(spec, catalog, loops)


def build_reduced_pool(spec, max_letters=4000):
    """A partial reduced automaton from single-letter loop synchronization.

    For large inputs the full pair-set enumeration is hopeless; this variant
    only materializes letters whose middle word has length <= 1 and whose
    loop labels are single self-loop letters shared by whole state sets
    R_g = {q | g self-loops at q}.  Sound for inseparability certificates
    (every letter still decodes to a valid pattern block); incomplete.
    """
    nfa = spec.nfa
    fwd = reachable(nfa, set(spec.i1) | set(spec.i2))
    bwd = coreachable(nfa, set(spec.f1) | set(spec.f2))
    useful = fwd & bwd
    use1 = reachable(nfa, spec.i1) & coreachable(nfa, spec.f1)
    use2 = reachable(nfa, spec.i2) & coreachable(nfa, spec.f2)
    self_loops = {}
    for (p, a, q) in nfa.transitions:
        if p == q and p in useful:
            self_loops.setdefault(p, set()).add(a)
    ring = {}  # loop letter g -> frozenset R_g
    for q, syms in self_loops.items():
        for g in syms:
            ring.setdefault(g, set()).add(q)
    ring = {g: frozenset(s) for g, s in ring.items()}
    i_all = set(spec.i1) | set(spec.i2)
    f_all = set(spec.f1) | set(spec.f2)

    # gather pairs per letter key
    buckets = {}

    def put(key, pair):
        buckets.setdefault(key, set()).add(pair)

    arcs = [
        (p, (a,), q)
        for (p, a, q) in sorted(nfa.transitions)
        if p in useful and q in useful
    ]
    arcs += [(q, (), q) for q in sorted(useful)]
    for (p, mid, q) in arcs:
        for gl in sorted(self_loops.get(p, ())):
            for gr in sorted(self_loops.get(q, ())):
                put(("i", mid, gl, gr), (p, q))
        if p in i_all:
            for gr in sorted(self_loops.get(q, ())):
                put(("p", mid, gr), (p, q))
        if q in f_all:
            for gl in sorted(self_loops.get(p, ())):
                put(("s", mid, gl), (p, q))
    catalog = []
    loops = {}
    for g in sorted(ring):
        # letters looping at the same states: the least one names the loop
        loops.setdefault(ring[g], (g,))
    for key in sorted(buckets):
        pairs = buckets[key]
        kind, mid = key[0], key[1]
        # a letter is usable for matching only if both sides can traverse it
        if kind == "i":
            gl, gr = key[2], key[3]
            ok1 = any(p in use1 and q in use1 for (p, q) in pairs)
            ok2 = any(p in use2 and q in use2 for (p, q) in pairs)
            left_set, right_set = ring[gl], ring[gr]
            vl, vr = loops[left_set], loops[right_set]
        elif kind == "p":
            gr = key[2]
            ok1 = any(p in spec.i1 for (p, _q) in pairs)
            ok2 = any(p in spec.i2 for (p, _q) in pairs)
            left_set = frozenset(p for (p, _q) in pairs)
            right_set = ring[gr]
            vl, vr = None, loops[right_set]
        else:
            gl = key[2]
            ok1 = any(q in spec.f1 for (_p, q) in pairs)
            ok2 = any(q in spec.f2 for (_p, q) in pairs)
            left_set = ring[gl]
            right_set = frozenset(q for (_p, q) in pairs)
            vl, vr = loops[left_set], None
        if not (ok1 and ok2):
            continue
        catalog.append(
            SyncSet(frozenset(pairs), kind, mid, vl, vr, left_set, right_set)
        )
    catalog.sort(key=lambda b: (-len(b.pairs), b.name()))
    catalog = catalog[:max_letters]
    return _assemble(spec, catalog, loops)


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

    loops = reduced.loop_witness

    def block_of(sym):
        b = cat[sym]
        return (loops[b.left_set], tuple(b.witness_mid), loops[b.right_set])

    bp, bs = cat[w1[0]], cat[w1[-1]]
    prefix_block = (tuple(bp.witness_mid), loops[bp.right_set])
    suffix_block = (loops[bs.left_set], tuple(bs.witness_mid))
    counts = {}
    for sym in w1[1:-1]:
        blk = block_of(sym)
        counts[blk] = counts.get(blk, 0) + 1
    counts = {blk: min(d, c) for blk, c in counts.items()}

    def decomp(syms, i, f):
        run = find_run(reduced.nfa, i, f, syms)
        tags = [reduced.state_tags[q] for q in run]
        # tags: ('in', q0), ('rs', r, R)..., ('out', qf)
        states = [tags[0][1]] + [t[1] for t in tags[1:-1]] + [tags[-1][1]]
        u_segs = [tuple(cat[s].witness_mid) for s in syms]
        v_segs = []
        for j in range(1, len(syms)):
            b = cat[syms[j]]
            v_segs.append(loops[b.left_set])
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
