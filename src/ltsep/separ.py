"""Decision engine: fixed-(k,d) separability, full LT, full LTT, separator
handles, and inseparability witnesses.

Verdicts are three-valued: separable, inseparable, or unknown when a solver
or enumeration budget ran out.  Separable verdicts carry (or can build) a
separator handle for the profile-closure of L1; inseparable verdicts carry a
checkable witness (a word pair, or a pattern that pumps into word pairs).
"""

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

from .automata import LangSpec, Nfa, accepts, shortest_common_word
from .automata import product  # not called here; bench/tracing.py wraps separ.product
from .monoid import transition_monoid, profile_width_bound, MonoidBudgetError
from .profiles import language_signatures  # not called here; bench/tracing.py wraps separ.language_signatures
from .profiles import (
    annotate,
    equivalent,
    language_counts,
    project_profile_word,
    set_bits,
    window_walk,
    AnnotationBudgetError,
    Windows,
)
from . import parikh as pk
from .reduction import (
    build_reduced,
    build_reduced_pool,
    decode_pattern,
    pump_pattern,
    SyncBudgetError,
    DPattern,
)


# the largest threshold the LTT doubling search tries on the reduced automaton
DOUBLING_MAX = 4096
# the (k, d) signature probes of the fallback, in order; LT keeps d = 1
PROBE_SCHEDULE = ((1, 1), (1, 2), (2, 1), (1, 3))


@dataclass(frozen=True)
class EngineConfig:
    """Budgets for the decision pipelines: states for profile annotation,
    signature enumeration and membership search, and the solver's box cap."""

    state_budget: int = 500_000
    solver_cap: int = 100_000


def _cfg(cfg):
    return cfg if cfg is not None else EngineConfig()


@dataclass
class WitnessPair:
    """Concrete inseparability witness: w1 in L1, w2 in L2, equivalent at (k,d)."""

    w1: tuple
    w2: tuple
    k: int
    d: int


@dataclass(frozen=True)
class SeparatorHandle:
    """Implicit representation of the profile closure of L1 at (k, d).

    w is a member when some L1 word shares its capped profile image.  The
    handle answers membership, and builds its explicit automaton, from one
    L1 image table (l1_table): one walk over L1's windows, exploring at
    most state_budget states, made on first use and kept.  A handle from
    decide_fixed makes it on the first query, so that query pays for the
    walk and later ones cost O(|w|); the fallback's signature probe makes
    it to search L2 against, so its handle arrives with the table built,
    and the LT and LTT verdicts of one spec share that handle.  When the
    walk passes the budget the table records that, and each query searches
    L1's windows for its own image instead.
    """

    k: int
    d: int
    spec: LangSpec  # the original two-language spec
    state_budget: int

    @cached_property
    def l1_table(self):
        """(win, goals): a Windows at (k, d) and the set of L1's flushed
        counts in its numbering, or None when the walk over L1 passes
        state_budget states.

        Cached on the instance, outside the fields, so that
        dataclasses.replace gives a handle that builds its own table.
        """
        win = Windows(self.k, self.d)
        spec = self.spec
        try:
            goals = language_counts(spec.nfa, spec.i1, spec.f1, win, self.state_budget)
        except AnnotationBudgetError:
            return None
        return win, frozenset(goals)


@dataclass
class Verdict:
    problem: str  # 'lt' | 'ltt' | 'fixed'
    separable: object  # True | False | None (unknown)
    k: object = None
    d: object = None  # int | 'limit'
    witness: object = None  # WitnessPair | DPattern | None
    separator: object = None  # SeparatorHandle | None
    flags: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    _replay: object = None  # LTT: replays the certificate's pattern at d

    @property
    def status(self):
        if self.separable is True:
            return "separable"
        if self.separable is False:
            return "inseparable"
        return "unknown"


def _budget_flags(res):
    """The flag of a match that is neither SAT nor certainly UNSAT."""
    return ["solver-budget"] if res.status == pk.UNKNOWN else ["box-bound"]


def _common_word(spec):
    """A shortest word of L1 ∩ L2, re-verified on both sides, or None.

    A separator contains L1 and is disjoint from L2, so a common word rules
    one out at every (k, d) and in every class; every decision asks this
    first.
    """
    w = shortest_common_word(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2)
    if w is not None and not (
        accepts(spec.nfa, spec.i1, spec.f1, w) and accepts(spec.nfa, spec.i2, spec.f2, w)
    ):
        raise RuntimeError("common word failed re-verification")
    return w


def decide_fixed(spec, k, d, cfg=None):
    """Is there no pair w1 in L1, w2 in L2 with equal capped k-profile images?

    Like every decision, this first looks for a common word w of L1 and
    L2, which answers inseparable with the pair (w, w) at any (k, d).  Only
    disjoint languages are annotated at width k and matched in the flow
    model, so only they can answer unknown.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    common = _common_word(spec)
    if common is not None:
        return Verdict("fixed", False, k, d, witness=WitnessPair(common, common, k, d))
    return _decide_fixed_by_flow(spec, k, d, _cfg(cfg))


def _decide_fixed_by_flow(spec, k, d, cfg):
    """Fixed-(k,d) separability by a match of the two sides' flow models,
    each annotated with its width-k profiles, at threshold d."""
    try:
        ann1 = annotate(spec.nfa, spec.i1, spec.f1, k, cfg.state_budget)
        ann2 = annotate(spec.nfa, spec.i2, spec.f2, k, cfg.state_budget)
    except AnnotationBudgetError:
        return Verdict("fixed", None, k, d, flags=["state-budget"])
    sys1, sys2 = pk.flow_systems((ann1.nfa, ann1.i, ann1.f), (ann2.nfa, ann2.i, ann2.f))
    res = pk.match_fixed(sys1, sys2, sys1.letters, d, cfg.solver_cap)
    if res.status == pk.SAT:
        p1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
        p2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2)
        w1 = project_profile_word(ann1.profiles, p1)
        w2 = project_profile_word(ann2.profiles, p2)
        if not accepts(spec.nfa, spec.i1, spec.f1, w1):
            raise RuntimeError("witness w1 failed re-verification")
        if not accepts(spec.nfa, spec.i2, spec.f2, w2):
            raise RuntimeError("witness w2 failed re-verification")
        if not equivalent(w1, w2, k, d):
            raise RuntimeError("witness pair failed profile equivalence")
        return Verdict(
            "fixed", False, k, d, witness=WitnessPair(w1, w2, k, d)
        )
    if res.status == pk.UNSAT and res.certain:
        handle = SeparatorHandle(k, d, spec, cfg.state_budget)
        return Verdict("fixed", True, k, d, separator=handle)
    return Verdict("fixed", None, k, d, flags=_budget_flags(res))


def _reduced_systems(red):
    return pk.flow_systems((red.nfa, red.i1, red.f1), (red.nfa, red.i2, red.f2))


class _Evidence:
    """The work toward an LT or LTT verdict on one spec that does not depend
    on the class asked, each part computed on first use and kept.

    Verdicts are built afresh from these parts on every call.
    """

    def __init__(self, spec, cfg):
        self.spec = spec
        self.cfg = cfg
        self._matches = {}
        self._probes = {}

    @cached_property
    def common(self):
        return _common_word(self.spec)

    @cached_property
    def reduced(self):
        """(reduced automaton, sys1, sys2), or None past the sync budget."""
        try:
            red = build_reduced(self.spec)
        except SyncBudgetError:
            return None
        return (red, *_reduced_systems(red))

    def match(self, d):
        """The exact match at threshold d on the reduced automaton."""
        if d not in self._matches:
            _red, sys1, sys2 = self.reduced
            self._matches[d] = pk.match_fixed(sys1, sys2, sys1.letters, d, self.cfg.solver_cap)
        return self._matches[d]

    def probe(self, k, d):
        if (k, d) not in self._probes:
            self._probes[(k, d)] = _sig_probe(self.spec, k, d, self.cfg)
        return self._probes[(k, d)]

    @cached_property
    def pool(self):
        """(pool automaton, sys1, sys2, its exact match at every threshold)."""
        pool = build_reduced_pool(self.spec)
        sys1, sys2 = _reduced_systems(pool)
        return pool, sys1, sys2, pk.match_fixed(sys1, sys2, sys1.letters, None, self.cfg.solver_cap)


@lru_cache(maxsize=1)
def _evidence(spec, cfg):
    """The evidence record of the last spec asked, so that LT and LTT on one
    spec share their class-independent work; a new spec replaces it."""
    return _Evidence(spec, cfg)


def _decide_full(spec, cfg, problem, settle):
    """The LT/LTT pipeline shared by both problems.

    A common word decides inseparability at once; otherwise the reduced
    automaton is built (the fallback takes over past its budget) and
    settle(spec, cfg) runs the problem's matching.  The common word, the
    reduction, its exact matches and the fallback's probes and pool match
    come from the spec's evidence record, so deciding the other class on
    the same spec next reuses them.
    """
    cfg = _cfg(cfg)
    ev = _evidence(spec, cfg)
    if ev.common is not None:
        return Verdict(
            problem, False, 1, "limit" if problem == "ltt" else 1,
            witness=DPattern(word=ev.common, origin=spec),
            notes={"reason": "nonempty intersection"},
        )
    if ev.reduced is None:
        return _fallback(spec, cfg, problem=problem)
    return settle(spec, cfg)


def _settle_lt(spec, cfg):
    """LT: an exact match at threshold 1 on the reduced automaton."""
    ev = _evidence(spec, cfg)
    red, sys1, sys2 = ev.reduced
    res = ev.match(1)
    if res.status == pk.SAT:
        r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
        r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2)
        pat = decode_pattern(red, r1, r2, 1)
        return Verdict(
            "lt", False, 1, 1,
            witness=pat,
            notes={"pumped_pair": pump_pattern(pat, 1, 1)},
        )
    if res.status == pk.UNSAT and res.certain:
        # report the direct width k = 4*(monoid size + 1) when within budget
        try:
            kd = profile_width_bound(transition_monoid(spec.nfa))
        except MonoidBudgetError:
            return Verdict("lt", True, 1, 1)
        return Verdict("lt", True, kd, 1, notes={"direct_width": kd})
    return Verdict("lt", None, 1, 1, flags=_budget_flags(res))


def _settle_ltt(spec, cfg):
    """LTT: a pump certificate on the reduced automaton, or else the least
    doubled threshold at which no exact match exists."""
    ev = _evidence(spec, cfg)
    red, sys1, sys2 = ev.reduced
    res = pk.match_limit(sys1, sys2, sys1.letters, cfg.solver_cap)
    if res.status == pk.SAT:
        cert = res.assignment1

        def pattern(d):
            t = max(1, d)
            r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, cert.pumped(1, t))
            r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, cert.pumped(2, t))
            return decode_pattern(red, r1, r2, d)

        return Verdict(
            "ltt", False, 1, "limit",
            witness=pattern(1),
            _replay=lambda d, ell=1: pump_pattern(pattern(d), ell, d),
        )
    if res.status == pk.UNKNOWN:
        return Verdict("ltt", None, 1, "limit", flags=["solver-budget"])
    # no pump certificate: find a concrete failing threshold by doubling
    d = 1
    while d <= DOUBLING_MAX:
        probe = ev.match(d)
        if probe.status == pk.UNSAT and probe.certain:
            return Verdict(
                "ltt", True, 1, d,
                notes={"usable_threshold": d, "on": "reduced"},
            )
        if probe.status != pk.SAT:
            return Verdict("ltt", None, 1, d, flags=_budget_flags(probe))
        d *= 2
    return Verdict(
        "ltt", None, 1, "limit",
        flags=["certificate-incomplete"],
        notes={"detail": "no certificate, yet matches exist at all probed thresholds"},
    )


def decide_lt(spec, cfg=None):
    """Separability by a locally testable language (threshold 1, some width)."""
    return _decide_full(spec, cfg, "lt", _settle_lt)


def decide_ltt(spec, cfg=None):
    """Separability by a locally threshold testable language (any threshold)."""
    return _decide_full(spec, cfg, "ltt", _settle_ltt)


def _goal_filter(win, goals):
    """The test compat(counts): can a state with these capped counts still
    grow into one of goals, counts in win's numbering?

    Counts are monotone along a run, so a state can still reach a goal
    when every bit of its counts is set at the same level in the goal's;
    a state that fails the test, and every state after it, has no flushed
    counts among the goals.
    """
    # level c, profile bit -> the goals holding it at level c, as a bitmask
    # over the goals' order
    holders = [{} for _ in range(win.d)]
    for j, goal in enumerate(goals):
        for c, level in enumerate(goal):
            for bit in set_bits(level):
                holders[c][bit] = holders[c].get(bit, 0) | 1 << j
    every = (1 << len(goals)) - 1

    @cache
    def compat(counts):
        alive = every
        for by_bit, level in zip(holders, counts):
            for bit in set_bits(level):
                alive &= by_bit.get(bit, 0)
                if not alive:
                    return False
        return bool(alive)

    return compat


def _meets(nfa, i, f, win, goals, budget):
    """Does some word of L(nfa, i, f) have its flushed counts in goals,
    counts in win's numbering?

    Walks the language's sliding windows in win, pruned by _goal_filter,
    with early exit on a hit.  Returns True or False, or None past budget
    states.
    """
    compat = _goal_filter(win, goals)
    fset = set(f)
    walk = window_walk(nfa.out(), i, win, budget, compat)
    try:
        for _src, _a, st, new in walk:
            if new and st[0] in fset and win.flush(*st[1:]) in goals:
                return True
    except AnnotationBudgetError:
        return None
    return False


def _sig_probe(spec, k, d, cfg):
    """Exact fixed-(k,d) separability by enumeration of capped images.

    Builds the separator handle at (k, d) and its L1 image table, then
    searches L2's windows, in the table's numbering, for one of L1's
    images.  Returns the handle when no L2 word shares one, False when one
    does, and None when either walk passes the state budget.
    """
    handle = SeparatorHandle(k, d, spec, cfg.state_budget)
    table = handle.l1_table
    if table is None:
        return None
    shared = _meets(spec.nfa, spec.i2, spec.f2, *table, cfg.state_budget)
    if shared is None:
        return None
    return False if shared else handle


def _fallback(spec, cfg, problem):
    """Bounded dual search for inputs past the complete reduction's budget.

    Separability side: fixed-(k,d) probes on the original languages by exact
    enumeration of capped images (sound: a fixed-parameter separator is an
    LT/LTT separator); a separable verdict hands out the probe's separator
    handle, whose L1 image table is the probe's walk over L1.
    Inseparability side: an exactly-matching word pair over the partial
    reduced automaton decodes to a common pattern at every threshold (sound
    for both LT and LTT).  Neither side is complete; exhaustion reports
    unknown.  The probes and the pool match
    come from the spec's evidence record, so LT and LTT on one spec make
    each of them once, and their verdicts share a probe's handle.
    """
    ev = _evidence(spec, cfg)
    flags = ["reduction-budget"]
    schedule = PROBE_SCHEDULE if problem == "ltt" else tuple(
        dict.fromkeys((k, 1) for (k, _d) in PROBE_SCHEDULE)
    )

    def probe_verdict(k, d):
        handle = ev.probe(k, d)
        if not handle:
            return None
        return Verdict(
            problem, True, k, d,
            separator=handle,
            flags=flags,
            notes={"via": "fixed-probe"},
        )

    v = probe_verdict(*schedule[0])
    if v is not None:
        return v
    pool, sys1, sys2, res = ev.pool
    if res.status == pk.SAT:
        r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
        r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2)
        return Verdict(
            problem, False, 1, "limit" if problem == "ltt" else 1,
            witness=decode_pattern(pool, r1, r2, 1),
            flags=flags,
            notes={"via": "exact-match-pool"},
        )
    for (k, d) in schedule[1:]:
        v = probe_verdict(k, d)
        if v is not None:
            return v
    return Verdict(problem, None, flags=flags + ["search-exhausted"])


def replay_witness(verdict, d, ell=1):
    """Pump an inseparability verdict into a pair equivalent at (ell, d).

    Raises ValueError when the verdict has no pattern, or when the pumped
    pair fails its check (an LT pattern need not pump at d >= 2).
    """
    if verdict._replay is not None:
        return verdict._replay(d, ell)
    if not isinstance(verdict.witness, DPattern):
        raise ValueError("verdict has no replayable witness")
    return pump_pattern(verdict.witness, ell, d)


def separator_membership(handle, w):
    """Does w belong to the profile closure of L1 at the handle's (k, d)?

    True iff some u in L1 has the same capped image as w.  The first query
    on a decide_fixed handle builds its L1 image table (a probe handle has
    it from the probe); every query then reads w's counts in the table's
    numbering, one window pair per position, and looks them up.  When the
    table's walk passed the state budget, each query instead searches L1's
    windows for w's image alone (_meets, pruned to that image), and returns
    None past the budget.  Both answers are exact: no flow model, no
    floating point.
    """
    w = tuple(w)
    for a in w:
        if a not in handle.spec.nfa.alphabet:
            raise ValueError("symbol %r outside the alphabet" % (a,))
    table = handle.l1_table
    if table is None:
        win = Windows(handle.k, handle.d)
        buf, counts = (), win.empty
        for a in w:
            buf, counts = win.step(buf, counts, a)
        spec = handle.spec
        goals = {win.flush(buf, counts)}
        return _meets(spec.nfa, spec.i1, spec.f1, win, goals, handle.state_budget)
    win, goals = table
    counts = win.word_counts(w)
    return counts is not None and counts in goals


def separator_automaton(handle):
    """Materialize the separator as an explicit deterministic automaton.

    States are (window buffer, capped counts), the buffer holding the last
    <= kl+kr letters, numbered in discovery order of a window walk over one
    state looping on every letter; a state accepts when its flushed counts
    are in the handle's L1 image table, which the walk shares with
    membership.  The walk is pruned as _meets prunes it (_goal_filter): no
    state past a pruned one accepts, so every edge into a pruned state goes
    to one rejecting sink, numbered last.  The walk, and the table's walk
    over L1 when the handle has not made it yet, explore at most the
    handle's state_budget states.
    """
    budget = handle.state_budget
    table = handle.l1_table
    if table is None:
        raise AnnotationBudgetError("signature exploration exceeded %d states" % budget)
    win, goals = table
    alphabet = tuple(handle.spec.nfa.alphabet)
    loops = {0: [(a, 0) for a in alphabet]}
    compat = _goal_filter(win, goals)
    index = {}
    transitions = set()
    pruned = set()
    try:
        for src, a, st, new in window_walk(loops, (0,), win, budget, compat):
            if new:
                index[st] = len(index)
            if st is None:
                pruned.add((index[src], a))
            elif src is not None:
                transitions.add((index[src], a, index[st]))
    except AnnotationBudgetError:
        raise AnnotationBudgetError(
            "separator automaton exceeded %d states" % budget
        ) from None
    f = frozenset(
        n for (_q, buf, counts), n in index.items()
        if win.flush(buf, counts) in goals
    )
    n = len(index)
    if pruned:
        transitions |= {(p, a, n) for p, a in pruned}
        transitions |= {(n, a, n) for a in alphabet}
        n += 1
    nfa = Nfa(n, alphabet, frozenset(transitions))
    return nfa, frozenset([0]), f
