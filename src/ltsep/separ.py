"""Decision engine: fixed-(k,d) separability, full LT, full LTT, separator
handles, and inseparability witnesses.

Verdicts are three-valued: separable, inseparable, or unknown when a solver
or enumeration budget ran out.  Separable verdicts carry (or can build) a
separator handle for the profile-closure of L1; inseparable verdicts carry a
checkable witness (a word pair, or a pattern that pumps into word pairs).
"""

from dataclasses import dataclass, field

from .automata import LangSpec, Nfa, accepts, product, shortest_word
from .monoid import transition_monoid, profile_width_bound, MonoidBudgetError
from .profiles import (
    annotate,
    capped_image,
    equivalent,
    language_signatures,
    project_profile_word,
    split_width,
    window_step,
    window_flush,
    AnnotationBudgetError,
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


@dataclass
class EngineConfig:
    """Budgets for the decision pipelines."""

    monoid_budget: int = 100_000
    annot_budget: int = 200_000
    solver_cap: int = 100_000
    sync_budget: int = 8192
    sync_node_cap: int = 200_000
    pool_max_letters: int = 4000
    doubling_max: int = 4096
    probe_schedule: tuple = ((1, 1), (1, 2), (2, 1))
    signature_budget: int = 500_000


def _cfg(cfg):
    return cfg if cfg is not None else EngineConfig()


@dataclass
class WitnessPair:
    """Concrete inseparability witness: w1 in L1, w2 in L2, equivalent at (k,d)."""

    w1: tuple
    w2: tuple
    k: int
    d: int


@dataclass
class SeparatorHandle:
    """Implicit representation of the profile closure of L1 at (k, d).

    Membership of w reduces to one flow-feasibility question: does some L1
    word share w's capped profile image?
    """

    k: int
    d: int
    system: pk.FlowSystem  # flow system of the profile-annotated L1
    profiles: dict  # annotated symbol -> Profile
    spec: LangSpec  # the original two-language spec
    cap: int = 100_000


@dataclass
class Verdict:
    problem: str  # 'lt' | 'ltt' | 'fixed'
    separable: object  # True | False | None (unknown)
    k: object = None
    d: object = None  # int | 'limit'
    witness: object = None  # WitnessPair | DPattern | None
    separator: object = None  # SeparatorHandle | None
    certificate: object = None  # PumpCertificate | None
    flags: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    _replay: object = None  # internal closure for certificate replay

    @property
    def status(self):
        if self.separable is True:
            return "separable"
        if self.separable is False:
            return "inseparable"
        return "unknown"


def annotated_side(spec, which, k, cfg=None):
    cfg = _cfg(cfg)
    nfa = spec.nfa
    if which == 1:
        ann = annotate(nfa, spec.i1, spec.f1, k, cfg.annot_budget)
    else:
        ann = annotate(nfa, spec.i2, spec.f2, k, cfg.annot_budget)
    system = pk.flow_system(ann.nfa, ann.i, ann.f)
    return ann, system


def decide_fixed(spec, k, d, cfg=None):
    """Is there no pair w1 in L1, w2 in L2 with equal capped k-profile images?"""
    cfg = _cfg(cfg)
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    ann1, sys1 = annotated_side(spec, 1, k, cfg)
    ann2, sys2 = annotated_side(spec, 2, k, cfg)
    letters = sorted(set(sys1.nfa.alphabet) | set(sys2.nfa.alphabet))
    res = pk.match_fixed(sys1, sys2, letters, d, cfg.solver_cap)
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
        handle = SeparatorHandle(k, d, sys1, ann1.profiles, spec, cfg.solver_cap)
        return Verdict("fixed", True, k, d, separator=handle)
    flags = ["solver-budget"] if res.status == pk.UNKNOWN else ["box-bound"]
    return Verdict("fixed", None, k, d, flags=flags)


def _intersection_witness(spec):
    """A word of L1 ∩ L2, or None."""
    prod, ix = product(spec.nfa, spec.nfa)
    i = {ix[(p, q)] for p in spec.i1 for q in spec.i2}
    f = {ix[(p, q)] for p in spec.f1 for q in spec.f2}
    return shortest_word(prod, i, f)


def _reduced_systems(red):
    sys1 = pk.flow_system(red.nfa, red.i1, red.f1)
    sys2 = pk.flow_system(red.nfa, red.i2, red.f2)
    letters = sorted(set(sys1.nfa.alphabet) | set(sys2.nfa.alphabet))
    return sys1, sys2, letters


def _direct_width(spec, cfg):
    """k = 4*(monoid size + 1), or None past the monoid budget."""
    try:
        return profile_width_bound(transition_monoid(spec.nfa, cfg.monoid_budget))
    except MonoidBudgetError:
        return None


def decide_lt(spec, cfg=None):
    """Separability by a locally testable language (threshold 1, some width)."""
    cfg = _cfg(cfg)
    common = _intersection_witness(spec)
    if common is not None:
        wit = DPattern(word=tuple(common), d=1, origin=spec)
        v = Verdict(
            "lt", False, 1, 1,
            witness=wit,
            notes={"reason": "nonempty intersection"},
        )
        v._replay = lambda d, ell=1: (tuple(common), tuple(common))
        return v
    try:
        red = build_reduced(spec, cfg.sync_budget, cfg.sync_node_cap)
    except SyncBudgetError:
        return _fallback(spec, cfg, problem="lt")
    sys1, sys2, letters = _reduced_systems(red)
    res = pk.match_fixed(sys1, sys2, letters, 1, cfg.solver_cap)
    if res.status == pk.SAT:
        r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
        r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2)
        pat = decode_pattern(red, r1, r2, 1)
        w1, w2 = pump_pattern(pat, 1, 1)
        v = Verdict(
            "lt", False, 1, 1,
            witness=pat,
            notes={"pumped_pair": (w1, w2)},
        )
        v._replay = lambda d, ell=1: pump_pattern(pat, ell, 1)
        return v
    if res.status == pk.UNSAT and res.certain:
        kd = _direct_width(spec, cfg)
        notes = {}
        if kd is not None:
            notes["direct_width"] = kd
        return Verdict("lt", True, kd if kd is not None else 1, 1, notes=notes)
    return Verdict("lt", None, 1, 1, flags=["solver-budget"])


def decide_ltt(spec, cfg=None):
    """Separability by a locally threshold testable language (any threshold)."""
    cfg = _cfg(cfg)
    common = _intersection_witness(spec)
    if common is not None:
        wit = DPattern(word=tuple(common), d=1, origin=spec)
        v = Verdict(
            "ltt", False, 1, "limit",
            witness=wit,
            notes={"reason": "nonempty intersection"},
        )
        v._replay = lambda d, ell=1: (tuple(common), tuple(common))
        return v
    try:
        red = build_reduced(spec, cfg.sync_budget, cfg.sync_node_cap)
    except SyncBudgetError:
        return _fallback(spec, cfg, problem="ltt")
    sys1, sys2, letters = _reduced_systems(red)
    res = pk.match_limit(sys1, sys2, letters, cfg.solver_cap)
    if res.status == pk.SAT:
        cert = res.assignment1

        def replay(d, ell=1):
            t = max(1, d)
            r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, cert.pumped(1, t))
            r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, cert.pumped(2, t))
            pat = decode_pattern(red, r1, r2, d)
            return pump_pattern(pat, ell, d)

        r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, cert.pumped(1, 1))
        r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, cert.pumped(2, 1))
        pat = decode_pattern(red, r1, r2, 1)
        v = Verdict("ltt", False, 1, "limit", witness=pat, certificate=cert)
        v._replay = replay
        return v
    if res.status == pk.UNKNOWN:
        return Verdict("ltt", None, 1, "limit", flags=["solver-budget"])
    # no pump certificate: find a concrete failing threshold by doubling
    d = 1
    while d <= cfg.doubling_max:
        probe = pk.match_fixed(sys1, sys2, letters, d, cfg.solver_cap)
        if probe.status == pk.UNSAT and probe.certain:
            return Verdict(
                "ltt", True, 1, d,
                notes={"usable_threshold": d, "on": "reduced"},
            )
        if probe.status != pk.SAT:
            return Verdict("ltt", None, 1, d, flags=["solver-budget"])
        d *= 2
    return Verdict(
        "ltt", None, 1, "limit",
        flags=["certificate-incomplete"],
        notes={"detail": "no certificate, yet matches exist at all probed thresholds"},
    )


def _sig_probe(spec, k, d, cfg):
    """Exact fixed-(k,d) separability by signature enumeration; None on budget.

    Enumerates side 1's signatures, then walks side 2 pruning any state whose
    capped counts can no longer grow into a side-1 signature (counts are
    monotone along a run), with early exit on a shared signature.
    """
    try:
        targets = language_signatures(
            spec.nfa, spec.i1, spec.f1, k, d, cfg.signature_budget
        )
    except AnnotationBudgetError:
        return None
    if not targets:
        return True
    target_dicts = [dict(t) for t in targets]

    compat_cache = {}

    def compat(counts):
        got = compat_cache.get(counts)
        if got is None:
            got = any(
                all(c <= t.get(p, 0) for (p, c) in counts)
                for t in target_dicts
            )
            compat_cache[counts] = got
        return got

    from collections import deque

    kl, kr = split_width(k)
    w_len = kl + kr
    fset = set(spec.f2)
    delta = {}
    for (p, a, q) in spec.nfa.transitions:
        delta.setdefault(p, []).append((a, q))

    def hit(q, buf, counts, length):
        return q in fset and window_flush(buf, counts, k, d, length) in targets

    seen = set()
    queue = deque()
    for q0 in set(spec.i2):
        st = (q0, (), frozenset(), 0)
        if st not in seen:
            if hit(*st):
                return False
            seen.add(st)
            queue.append(st)
    while queue:
        q, buf, counts, length = queue.popleft()
        for (a, q2) in delta.get(q, ()):
            nbuf, ncounts = window_step(buf, counts, a, k, d)
            st = (q2, nbuf, ncounts, min(length + 1, w_len))
            if st in seen or not compat(ncounts):
                continue
            if hit(*st):
                return False
            if len(seen) >= cfg.signature_budget:
                return None
            seen.add(st)
            queue.append(st)
    return True


def _fallback(spec, cfg, problem):
    """Bounded dual search for inputs too large for full set enumeration.

    Separability side: fixed-(k,d) probes on the original languages by exact
    signature enumeration (sound: a fixed-parameter separator is an LT/LTT
    separator); a separable verdict still hands out the flow-based separator
    handle.  Inseparability side: an exactly-matching word pair over the
    partial reduced automaton decodes to a common pattern at every threshold
    (sound for both LT and LTT).  Neither side is complete; exhaustion
    reports unknown.
    """
    flags = ["reduction-budget"]
    schedule = cfg.probe_schedule if problem == "ltt" else tuple(
        dict.fromkeys((k, 1) for (k, _d) in cfg.probe_schedule)
    )

    def probe_verdict(k, d):
        if _sig_probe(spec, k, d, cfg):
            ann1, sys1 = annotated_side(spec, 1, k, cfg)
            handle = SeparatorHandle(
                k, d, sys1, ann1.profiles, spec, cfg.solver_cap
            )
            return Verdict(
                problem, True, k, d,
                separator=handle,
                flags=flags,
                notes={"via": "fixed-probe"},
            )
        return None

    v = probe_verdict(*schedule[0])
    if v is not None:
        return v
    pool = build_reduced_pool(spec, cfg.pool_max_letters)
    sys1, sys2, letters = _reduced_systems(pool)
    res = pk.match_fixed(sys1, sys2, letters, None, cfg.solver_cap)
    if res.status == pk.SAT:
        r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
        r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2)

        def replay(d, ell=1):
            pat = decode_pattern(pool, r1, r2, d)
            return pump_pattern(pat, ell, d)

        pat = decode_pattern(pool, r1, r2, 1)
        v2 = Verdict(
            problem, False, 1,
            "limit" if problem == "ltt" else 1,
            witness=pat,
            flags=flags,
            notes={"via": "exact-match-pool"},
        )
        v2._replay = replay
        return v2
    for (k, d) in schedule[1:]:
        v = probe_verdict(k, d)
        if v is not None:
            return v
    return Verdict(problem, None, flags=flags + ["search-exhausted"])


def replay_witness(verdict, d, ell=1):
    """Pump an inseparability verdict into a pair equivalent at (ell, d)."""
    if verdict._replay is None:
        raise ValueError("verdict has no replayable witness")
    return verdict._replay(d, ell)


def separator_membership(handle, w):
    """Does w belong to the profile closure of L1 at the handle's (k, d)?

    True iff some u in L1 has the same capped image as w; three-valued (None
    on solver budget exhaustion).
    """
    w = tuple(w)
    for a in w:
        if a not in handle.spec.nfa.alphabet:
            raise ValueError("symbol %r outside the alphabet" % (a,))
    img = capped_image(w, handle.k, handle.d).as_dict()
    known = set(handle.system.nfa.alphabet)
    count_eq = {}
    count_ge = {}
    for p, c in img.items():
        sym = p.symbol()
        if sym not in known:
            # L1 never produces this profile, so counts can only match as 0
            return False
        if c < handle.d:
            count_eq[sym] = c
        else:
            count_ge[sym] = handle.d
    # a minimal matching flow never pushes any count far past the threshold:
    # surplus cycles can be cancelled, so a small box keeps the search exact
    # while shrinking the big-M coefficients of the connectivity cuts
    small = (
        sum(count_eq.values())
        + handle.d * len(count_ge)
        + 2 * handle.system.nfa.n_states
        + 2
    )
    res = pk.feasible(
        handle.system,
        count_eq,
        count_ge,
        count_zero_rest=True,
        cap=min(handle.cap, small),
    )
    if res.status == pk.SAT:
        return True
    if res.status == pk.UNSAT:
        return False
    return None


def separator_automaton(handle, budget=100_000):
    """Materialize the separator as an explicit deterministic automaton.

    States are (window buffer, capped counts, fill degree); a state accepts
    when its flushed signature is the capped image of some L1 word.
    """
    spec = handle.spec
    k, d = handle.k, handle.d
    sigs = language_signatures(
        spec.nfa, spec.i1, spec.f1, k, d, budget
    )
    kl, kr = split_width(k)
    w_len = kl + kr
    alphabet = tuple(spec.nfa.alphabet)
    start = ((), frozenset(), 0)
    index = {start: 0}
    order = [start]
    transitions = set()
    pos = 0
    while pos < len(order):
        buf, counts, length = order[pos]
        src = pos
        pos += 1
        for a in alphabet:
            nbuf, ncounts = window_step(buf, counts, a, k, d)
            nlength = min(length + 1, w_len)
            st = (nbuf, ncounts, nlength)
            if st not in index:
                if len(order) >= budget:
                    raise AnnotationBudgetError(
                        "separator automaton exceeded %d states" % budget
                    )
                index[st] = len(order)
                order.append(st)
            transitions.add((src, a, index[st]))
    f = frozenset(
        index[st]
        for st in order
        if window_flush(st[0], st[1], k, d, st[2]) in sigs
    )
    nfa = Nfa(len(order), alphabet, frozenset(transitions))
    return nfa, frozenset([0]), f
