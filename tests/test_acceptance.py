"""End-to-end acceptance checks.

Each test prints exactly one `criterion N: pass/fail` line on the real
stdout (bypassing capture) so the suite output doubles as a checklist.
Later criteria reuse the verdicts computed by earlier ones through the
cached helpers below.
"""

import itertools
import random
import sys
import time
from functools import lru_cache

from ltsep.automata import accepts, shortest_common_word
from ltsep.monoid import (
    profile_width_bound,
    threshold_bound,
    transition_monoid,
)
from ltsep.profiles import AnnotationBudgetError, equivalent, profile_at
from ltsep import parikh as pk
from ltsep import separ
from ltsep.reduction import build_reduced
from ltsep.separ import (
    decide_fixed,
    decide_lt,
    decide_ltt,
    replay_witness,
    separator_automaton,
    separator_membership,
)
from ltsep.testkit import (
    Cnf3,
    exact_fixed_oracle,
    gen_parity,
    gen_random,
    gen_sat_instance,
    gen_threshold_family,
    sample_words,
    sat_brute,
)


def _report(capsys, num, ok, detail):
    line = "criterion %d: %s — %s" % (num, "pass" if ok else "fail", detail)
    with capsys.disabled():
        print(line, flush=True)


# the 15-letter worked example for width-6 windows
REF_WORD = tuple("bacccaabcbaabba")


def test_criterion_1_profile_windows(capsys):
    t0 = time.monotonic()
    got = [profile_at(REF_WORD, x, 6) for x in (0, 8, 13)]
    want = [
        ((), ("b", "a", "c")),
        (("a", "a", "b"), ("c", "b", "a")),
        (("a", "a", "b"), ("b", "a")),
    ]
    ok = [(p.left, p.right) for p in got] == want
    _report(capsys, 1, ok, "positions 0/8/13 at k=6 in %.2fs" % (time.monotonic() - t0))
    assert ok, got


def _reference_image(w, k, d):
    """Profile counts recomputed from scratch by explicit slicing."""
    kl = k // 2
    kr = k - kl
    counts = {}
    for x in range(len(w)):
        key = (w[max(0, x - kl):x], w[x:x + kr])
        counts[key] = min(d, counts.get(key, 0) + 1)
    return counts


def test_criterion_2_threshold_equivalence_coherence(capsys):
    t0 = time.monotonic()
    rng = random.Random(20)
    bad = 0
    for _ in range(1000):
        asz = rng.randint(1, 3)
        sigma = "abc"[:asz]
        w1 = tuple(rng.choice(sigma) for _ in range(rng.randint(0, 12)))
        w2 = tuple(rng.choice(sigma) for _ in range(rng.randint(0, 12)))
        w3 = tuple(rng.choice(sigma) for _ in range(rng.randint(0, 12)))
        k = rng.randint(1, 4)
        d = rng.randint(1, 3)
        direct = _reference_image(w1, k, d) == _reference_image(w2, k, d)
        if equivalent(w1, w2, k, d) != direct:
            bad += 1
            continue
        # equivalence relation: reflexive, symmetric, transitive
        if not equivalent(w1, w1, k, d):
            bad += 1
            continue
        if equivalent(w1, w2, k, d) != equivalent(w2, w1, k, d):
            bad += 1
            continue
        if (
            equivalent(w1, w2, k, d)
            and equivalent(w2, w3, k, d)
            and not equivalent(w1, w3, k, d)
        ):
            bad += 1
            continue
        # refinement: agreement at larger parameters implies agreement below
        k2 = rng.randint(k, 5)
        d2 = rng.randint(d, 4)
        if equivalent(w1, w2, k2, d2) and not equivalent(w1, w2, k, d):
            bad += 1
    ok = bad == 0
    _report(
        capsys,
        2,
        ok,
        "1000 word pairs, %d violations, %.1fs" % (bad, time.monotonic() - t0),
    )
    assert ok


@lru_cache(maxsize=None)
def _crit3_runs():
    """(spec, k, d, verdict, oracle) for 200 small random instances."""
    out = []
    rng = random.Random(3000)
    for seed in range(200):
        spec = gen_random(seed, rng.randint(1, 4), rng.randint(1, 2), 0.35)
        k = rng.randint(1, 2)
        d = rng.randint(1, 2)
        verdict = decide_fixed(spec, k, d)
        oracle = exact_fixed_oracle(spec, k, d)
        out.append((spec, k, d, verdict, oracle))
    return out


def test_criterion_3_oracle_equivalence(capsys):
    t0 = time.monotonic()
    unknown = 0
    disagree = 0
    for spec, k, d, verdict, oracle in _crit3_runs():
        if verdict.separable is None:
            unknown += 1
        elif verdict.status != oracle:
            disagree += 1
    ok = unknown == 0 and disagree == 0
    _report(
        capsys,
        3,
        ok,
        "200 specs, %d disagreements, %d unknown, %.1fs"
        % (disagree, unknown, time.monotonic() - t0),
    )
    assert ok


@lru_cache(maxsize=None)
def _crit4_runs():
    """Verdicts around the tight threshold 2^(2m-1) for m = 1, 2."""
    out = []
    for m in (1, 2):
        spec = gen_threshold_family(m)
        edge = 2 ** (2 * m - 1)
        out.append((spec, m, edge, decide_fixed(spec, 1, edge), decide_fixed(spec, 1, edge + 1)))
    return out


def test_criterion_4_threshold_optimality_family(capsys):
    t0 = time.monotonic()
    ok = True
    for spec, m, edge, at_edge, above in _crit4_runs():
        ok = ok and at_edge.separable is False and above.separable is True
    _report(
        capsys,
        4,
        ok,
        "m=1: flips at d=2->3; m=2: flips at d=8->9; %.1fs" % (time.monotonic() - t0),
    )
    assert ok


def test_criterion_5_parity_pair(capsys):
    t0 = time.monotonic()
    spec = gen_parity()
    vlt = decide_lt(spec)
    vltt = decide_ltt(spec)
    ok = vlt.separable is False and vltt.separable is False
    for d in (1, 2, 5):
        w1, w2 = replay_witness(vltt, d)
        ok = ok and accepts(spec.nfa, spec.i1, spec.f1, w1)
        ok = ok and accepts(spec.nfa, spec.i2, spec.f2, w2)
        ok = ok and equivalent(w1, w2, 1, d)
    _report(
        capsys,
        5,
        ok,
        "lt/ltt inseparable, replay valid at d=1,2,5; %.1fs" % (time.monotonic() - t0),
    )
    assert ok


def _formula_batch():
    """50 3-CNF formulas: mostly random, plus crafted unsatisfiable cores."""
    batch = []
    # every sign pattern over three variables: unsatisfiable
    full = tuple(
        tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for signs in itertools.product((1, -1), repeat=3)
    )
    batch.append(Cnf3(3, full))
    batch.append(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
    batch.append(Cnf3(5, ((1, 1, 1), (-1, -1, -1), (2, -3, 4), (-2, 5, 5))))
    batch.append(
        Cnf3(6, tuple(tuple(s * v for s, v in zip(signs, (2, 3, 4)))
                      for signs in itertools.product((1, -1), repeat=3)))
    )
    rng = random.Random(606)
    while len(batch) < 50:
        n = rng.randint(3, 8)
        m = rng.randint(1, 10)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(m)
        )
        batch.append(Cnf3(n, clauses))
    return batch


@lru_cache(maxsize=None)
def _crit6_decided():
    """(spec, sat, LTT verdict, LT verdict) per formula, with the number of
    HiGHS solves and of pool exact matches the verdicts took."""
    out = []
    solves = pools = 0
    real_solve = pk.MipModel.solve
    real_pool = separ.build_reduced_pool

    def counting_solve(model):
        nonlocal solves
        solves += 1
        return real_solve(model)

    def counting_pool(spec):
        nonlocal pools
        pools += 1
        return real_pool(spec)

    pk.MipModel.solve = counting_solve
    separ.build_reduced_pool = counting_pool
    try:
        for cnf in _formula_batch():
            spec = gen_sat_instance(cnf)
            out.append((spec, sat_brute(cnf), decide_ltt(spec), decide_lt(spec)))
    finally:
        pk.MipModel.solve = real_solve
        separ.build_reduced_pool = real_pool
    return out, solves, pools


def _crit6_runs():
    return _crit6_decided()[0]


def test_criterion_6_sat_reduction(capsys):
    t0 = time.monotonic()
    bad = 0
    sat_count = 0
    runs, solves, pools = _crit6_decided()
    for spec, sat, vltt, vlt in runs:
        sat_count += sat
        if vltt.separable is not (not sat) or vlt.separable is not (not sat):
            bad += 1
    ok = bad == 0
    # the counts carry no threshold: cut rounds move with hash order
    _report(
        capsys,
        6,
        ok,
        "50 formulas (%d sat / %d unsat), %d wrong verdicts, "
        "%d HiGHS solves in %d pool matches, %.1fs"
        % (sat_count, 50 - sat_count, bad, solves, pools, time.monotonic() - t0),
    )
    assert ok


def _separable_verdicts():
    """Every separable verdict produced by criteria 3, 4, and 6."""
    found = []
    for spec, k, d, verdict, _oracle in _crit3_runs():
        if verdict.separable is True:
            found.append((spec, verdict))
    for spec, _m, _edge, _at_edge, above in _crit4_runs():
        if above.separable is True:
            found.append((spec, above))
    for spec, _sat, vltt, vlt in _crit6_runs():
        for verdict in (vltt, vlt):
            if verdict.separable is True:
                found.append((spec, verdict))
    return found


def test_criterion_7_separator_soundness(capsys):
    t0 = time.monotonic()
    verdicts = _separable_verdicts()
    rng = random.Random(7)
    bad_in = bad_out = missing = 0
    handles = []
    for spec, verdict in verdicts:
        handle = verdict.separator
        if handle is None:
            missing += 1
            continue
        handles.append((spec, handle))
        for w in sample_words(spec.nfa, spec.i1, spec.f1, 50, rng):
            if separator_membership(handle, w) is not True:
                bad_in += 1
        for w in sample_words(spec.nfa, spec.i2, spec.f2, 50, rng):
            if separator_membership(handle, w) is not False:
                bad_out += 1
    # explicit automaton vs implicit handle, on every handle
    compared = disagree = 0
    for spec, handle in handles:
        try:
            nfa, i, f = separator_automaton(handle)
        except AnnotationBudgetError:
            continue
        compared += 1
        sigma = spec.nfa.alphabet
        for _ in range(200):
            w = tuple(rng.choice(sigma) for _ in range(rng.randint(0, 8)))
            if accepts(nfa, i, f, w) != separator_membership(handle, w):
                disagree += 1
    ok = (
        bad_in == 0
        and bad_out == 0
        and missing == 0
        and disagree == 0
        and len(handles) > 0
        and compared == len(handles)
    )
    _report(
        capsys,
        7,
        ok,
        "%d handles, %d/%d bad memberships, %d explicit automata, "
        "%d disagreements, %.1fs"
        % (len(handles), bad_in, bad_out, compared, disagree, time.monotonic() - t0),
    )
    assert ok


def test_criterion_8_cross_path_agreement(capsys):
    t0 = time.monotonic()
    rng = random.Random(8000)
    lt_checked = lt_disjoint = lt_bad = ltt_bad = unknown = 0
    for seed in range(100):
        spec = gen_random(
            10_000 + seed, rng.randint(1, 3), rng.randint(1, 2), 0.4
        )
        # direct path at the derived window width, where it fits the budget
        monoid = transition_monoid(spec.nfa)
        k = profile_width_bound(monoid)
        asz = len(spec.nfa.alphabet)
        n = max(spec.nfa.n_states, 1)
        kl, kr = k // 2, k - k // 2
        windows = sum(asz ** i for i in range(min(kl, 40) + 1)) * sum(
            asz ** j for j in range(min(kr, 40) + 1)
        )
        if 2 * n * windows <= 25_000:
            direct = decide_fixed(spec, k, 1)
            vlt = decide_lt(spec)
            if direct.separable is None or vlt.separable is None:
                unknown += 1
            else:
                lt_checked += 1
                # on disjoint languages both sides get past the common word,
                # so only these compare the flow model with decide_lt
                lt_disjoint += shortest_common_word(
                    spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2
                ) is None
                if direct.separable != vlt.separable:
                    lt_bad += 1
        # full-threshold verdict vs fixed-threshold matching at d = 1..8
        vltt = decide_ltt(spec)
        red = build_reduced(spec)
        sys1 = pk.flow_system(red.nfa, red.i1, red.f1)
        sys2 = pk.flow_system(red.nfa, red.i2, red.f2)
        letters = sorted(set(sys1.nfa.alphabet) | set(sys2.nfa.alphabet))
        # matching is monotone downward in d (a match at threshold d is a
        # match at every d' < d), so the endpoints decide all of d = 1..8
        sat1 = pk.match_fixed(sys1, sys2, letters, 1).status == pk.SAT
        sat8 = pk.match_fixed(sys1, sys2, letters, 8).status == pk.SAT
        assert sat1 or not sat8, "monotonicity violated on seed %d" % seed
        allsat = sat1 and sat8
        if vltt.separable is None:
            unknown += 1
        elif (vltt.separable is False) != allsat:
            ltt_bad += 1
    ok = (
        lt_bad == 0 and ltt_bad == 0 and unknown == 0
        and lt_checked >= 10 and lt_disjoint >= 9
    )
    _report(
        capsys,
        8,
        ok,
        "100 specs, %d direct-path checks (%d on disjoint languages), "
        "%d lt / %d ltt mismatches, %d unknown, %.1fs"
        % (lt_checked, lt_disjoint, lt_bad, ltt_bad, unknown, time.monotonic() - t0),
    )
    assert ok


def test_criterion_9_bound_formulas(capsys):
    t0 = time.monotonic()
    checks = []
    # hand-computed: 2 profiles at k=1 over 1 letter, (2*2)^2
    checks.append(threshold_bound(1, 1, 2) == 16)
    # 4 profiles at k=2 over 1 letter, (4*2)^4
    checks.append(threshold_bound(2, 1, 2) == 4096)
    # 21 profiles at k=3 over 2 letters ((1+2)*(1+2+4)), (21*2)^21
    checks.append(threshold_bound(3, 2, 2) == 42 ** 21)
    # parity: monoid {identity, swap}, width 4*(2+1), 49 profiles at k=12
    parity = gen_parity()
    monoid = transition_monoid(parity.nfa)
    k = profile_width_bound(monoid)
    checks.append(monoid.size == 2 and k == 12)
    checks.append(threshold_bound(k, 1, monoid.size + 1) == 147 ** 49)
    checks.append(threshold_bound(k, 1, 2) == 98 ** 49)
    # a two-state one-letter chain: monoid {identity, step, zero}, width 16
    from ltsep.automata import Nfa

    chain = Nfa(2, ("a",), frozenset([(0, "a", 1)]))
    checks.append(profile_width_bound(transition_monoid(chain)) == 16)
    ok = all(checks)
    _report(
        capsys,
        9,
        ok,
        "%d/%d exact bound values, %.2fs"
        % (sum(checks), len(checks), time.monotonic() - t0),
    )
    assert ok
