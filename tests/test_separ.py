"""Decision engine: fixed-parameter verdicts, full LT/LTT verdicts,
witness validity, and separator handles."""

import dataclasses
import itertools
import random

import pytest

from ltsep import parikh as pk
from ltsep import separ
from ltsep.automata import (
    LangSpec,
    Nfa,
    accepts,
    parse_spec,
    serialize_spec,
    shortest_common_word,
)
from ltsep.monoid import MonoidBudgetError, profile_width_bound, transition_monoid
from ltsep.profiles import (
    AnnotationBudgetError,
    Profile,
    Windows,
    capped_image,
    equivalent,
    language_signatures,
    out_edges,
    signature_of,
    split_width,
    window_walk,
)
from ltsep.reduction import DPattern
from ltsep.separ import (
    EngineConfig,
    WitnessPair,
    _fallback,
    _meets,
    _sig_probe,
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


def _fork_spec():
    """L1 = {a}, L2 = {b} over a shared three-state automaton."""
    nfa = Nfa(3, ("a", "b"), frozenset([(0, "a", 1), (0, "b", 2)]))
    return LangSpec(nfa, frozenset([0]), frozenset([1]), frozenset([0]), frozenset([2]))


def _one_versus_two_b():
    """L1 = a*ba*, L2 = a*ba*ba*: exactly one b against exactly two."""
    nfa = Nfa(3, ("a", "b"), frozenset([
        (0, "a", 0), (0, "b", 1), (1, "a", 1), (1, "b", 2), (2, "a", 2),
    ]))
    return LangSpec(nfa, frozenset([0]), frozenset([1]), frozenset([0]), frozenset([2]))


def _criterion_8_spec(seed):
    """Criterion 8's spec at generator seed 10,000 + seed, as the
    fixed-direct benchmark builds it."""
    rng = random.Random(8000)
    for s in range(seed + 1):
        spec = gen_random(10_000 + s, rng.randint(1, 3), rng.randint(1, 2), 0.4)
    return spec


class TestDecideFixed:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            decide_fixed(gen_parity(), 0, 1)
        with pytest.raises(ValueError):
            decide_fixed(gen_parity(), 1, 0)

    def test_parity_inseparable_with_valid_pair(self):
        for d in (1, 2):
            v = decide_fixed(gen_parity(), 1, d)
            assert v.separable is False
            wit = v.witness
            assert isinstance(wit, WitnessPair)
            spec = gen_parity()
            assert accepts(spec.nfa, spec.i1, spec.f1, wit.w1)
            assert accepts(spec.nfa, spec.i2, spec.f2, wit.w2)
            assert equivalent(wit.w1, wit.w2, 1, d)

    def test_fork_separable_with_handle(self):
        v = decide_fixed(_fork_spec(), 1, 1)
        assert v.separable is True
        assert v.separator is not None and v.separator.k == 1

    def test_monotone_in_parameters(self):
        # a separator at (k, d) stays one at any larger parameters
        rng = random.Random(77)
        grid = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for seed in range(30):
            spec = gen_random(seed, rng.randint(1, 3), rng.randint(1, 2), 0.35)
            got = {
                (k, d): decide_fixed(spec, k, d).separable for k, d in grid
            }
            assert None not in got.values()
            for (k, d) in grid:
                for (k2, d2) in grid:
                    if k2 >= k and d2 >= d and got[(k, d)]:
                        assert got[(k2, d2)], (seed, (k, d), (k2, d2))

    def test_sat_core_at_threshold_two(self):
        # in the 100,000 box HiGHS cannot prove this 41-variable model
        # infeasible within minutes; the first, small box settles it at once
        spec = gen_sat_instance(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
        v = decide_fixed(spec, 1, 2)
        assert v.separable is True
        assert exact_fixed_oracle(spec, 1, 2) == "separable"

    @pytest.mark.parametrize("spec", [
        _criterion_8_spec(2), _criterion_8_spec(7), gen_random(28, 3, 2, 0.3),
    ], ids=["c10002", "c10007", "random-28"])
    def test_common_word_decides_before_the_flow_model(self, spec, monkeypatch):
        def no_flow_model(*args):
            raise AssertionError("the flow model was built")

        monkeypatch.setattr(separ, "annotate", no_flow_model)
        monkeypatch.setattr(pk.MipModel, "solve", no_flow_model)
        common = shortest_common_word(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2)
        assert common is not None
        width = profile_width_bound(transition_monoid(spec.nfa))
        for k, d in ((1, 1), (2, 2), (width, 1)):
            v = decide_fixed(spec, k, d)
            assert (v.status, v.k, v.d, v.flags) == ("inseparable", k, d, [])
            assert v.witness == WitnessPair(common, common, k, d)

    def test_flow_model_agrees_with_signature_oracle(self):
        # criterion 3's 200 instances, intersecting ones included, through
        # the flow model alone: decide_fixed settles most of them earlier
        rng = random.Random(3000)
        seen = set()
        for seed in range(200):
            spec = gen_random(seed, rng.randint(1, 4), rng.randint(1, 2), 0.35)
            k, d = rng.randint(1, 2), rng.randint(1, 2)
            v = separ._decide_fixed_by_flow(spec, k, d, EngineConfig())
            assert v.status == exact_fixed_oracle(spec, k, d), (seed, k, d)
            seen.add(v.status)
        assert seen == {"separable", "inseparable"}

    def test_agrees_with_signature_oracle(self):
        rng = random.Random(88)
        for seed in range(25):
            spec = gen_random(100 + seed, rng.randint(1, 4), rng.randint(1, 2), 0.35)
            k, d = rng.randint(1, 2), rng.randint(1, 2)
            v = decide_fixed(spec, k, d)
            assert v.status == exact_fixed_oracle(spec, k, d)


class TestDecideFull:
    def test_fork_lt_and_ltt_separable(self):
        assert decide_lt(_fork_spec()).separable is True
        v = decide_ltt(_fork_spec()).separable
        assert v is True

    def test_parity_inseparable_both(self):
        assert decide_lt(gen_parity()).separable is False
        assert decide_ltt(gen_parity()).separable is False

    def test_nonempty_intersection_short_circuits(self):
        nfa = Nfa(2, ("a",), frozenset([(0, "a", 1)]))
        spec = LangSpec(nfa, frozenset([0]), frozenset([1]), frozenset([0]), frozenset([1]))
        for v in (decide_lt(spec), decide_ltt(spec)):
            assert v.separable is False
            assert isinstance(v.witness, DPattern)
            assert v.witness.word == ("a",)
            assert accepts(nfa, spec.i1, spec.f1, v.witness.word)

    def test_ltt_replay_produces_equivalent_pairs(self):
        spec = gen_parity()
        v = decide_ltt(spec)
        for d in (1, 3):
            for ell in (1, 2):
                w1, w2 = replay_witness(v, d, ell)
                assert accepts(spec.nfa, spec.i1, spec.f1, w1)
                assert accepts(spec.nfa, spec.i2, spec.f2, w2)
                assert equivalent(w1, w2, ell, d)

    def test_lt_one_versus_two_b_inseparable(self):
        # with n letters a around each b, windows of width k < n never see
        # two b's, so a^n b a^n and a^n b a^n b a^n agree at (k, 1)
        w1 = ("a",) * 25 + ("b",) + ("a",) * 25
        w2 = w1 + ("b",) + ("a",) * 25
        assert all(equivalent(w1, w2, k, 1) for k in range(1, 25))
        assert decide_lt(_one_versus_two_b()).separable is not True
        # counting b's up to 2 tells one from two, and up to 1 does not
        v = decide_ltt(_one_versus_two_b())
        assert v.separable is True
        assert v.notes["usable_threshold"] == 2

    def test_replay_requires_witness(self):
        v = decide_lt(_fork_spec())
        with pytest.raises(ValueError):
            replay_witness(v, 1)

    def test_lt_replay_checks_threshold(self):
        # an LT pattern promises equivalence at threshold 1 only; pumped for
        # d = 2 it must either pass the (1, 2) check or raise
        spec = gen_random(365, 3, 2, 0.3)
        v = decide_lt(spec)
        assert v.separable is False and v.witness.word is None
        try:
            w1, w2 = replay_witness(v, 2)
        except ValueError:
            return
        assert accepts(spec.nfa, spec.i1, spec.f1, w1)
        assert accepts(spec.nfa, spec.i2, spec.f2, w2)
        assert equivalent(w1, w2, 1, 2)

    def test_fallback_on_large_instances(self):
        # these encodings exceed the pair-set enumeration budget, forcing
        # the probe/pool fallback; verdicts must still match brute-force SAT
        for cnf in (
            Cnf3(4, ((1, 2, 3), (-1, -2, 4), (2, 3, -4))),
            Cnf3(1, ((1, 1, 1), (-1, -1, -1))),
        ):
            spec = gen_sat_instance(cnf)
            sat = sat_brute(cnf)
            for decide in (decide_ltt, decide_lt):
                v = decide(spec)
                assert v.separable is (not sat), cnf
                if v.separable is False:
                    w1, w2 = replay_witness(v, 1)
                    assert accepts(spec.nfa, spec.i1, spec.f1, w1)
                    assert accepts(spec.nfa, spec.i2, spec.f2, w2)
                    assert equivalent(w1, w2, 1, 1)

    def test_intersection_check_builds_no_product(self, monkeypatch):
        # the languages of the first encoding intersect, of the second not
        common = gen_sat_instance(Cnf3(2, ((1, 2, 2),)))
        disjoint = gen_sat_instance(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))

        def no_product(*args):
            raise AssertionError("the full product was built")

        monkeypatch.setattr(separ, "product", no_product)
        for decide, d in ((decide_ltt, "limit"), (decide_lt, 1)):
            v = decide(common)
            assert (v.separable, v.k, v.d) == (False, 1, d)
            assert v.witness.word == ("x1", "pad", "!x2", "pad")
            assert v.notes == {"reason": "nonempty intersection"}
            v = decide(disjoint)
            assert (v.separable, v.k, v.d) == (True, 1, 1)
            assert v.notes == {"via": "fixed-probe"}
            assert v.separator is not None

    def test_fallback_probes_threshold_three(self):
        # the threshold family at m = 1 is past the reduction budget and
        # separable exactly from d = 3 on, which only the last probe tries
        spec = gen_threshold_family(1)
        assert _sig_probe(spec, 1, 2, EngineConfig()) is False
        v = decide_ltt(spec)
        assert v.separable is True
        assert (v.k, v.d) == (1, 3)
        assert v.notes["via"] == "fixed-probe"
        assert "reduction-budget" in v.flags


class TestSeparator:
    def test_membership_basic(self):
        v = decide_fixed(_fork_spec(), 1, 1)
        handle = v.separator
        assert separator_membership(handle, ("a",)) is True
        assert separator_membership(handle, ("b",)) is False
        assert separator_membership(handle, ()) is False
        with pytest.raises(ValueError):
            separator_membership(handle, ("z",))

    def test_membership_is_profile_closure(self):
        # any word sharing an L1 word's capped image is a member, accepted
        # by the original language or not
        spec = gen_parity()
        # parity is inseparable at small parameters, so take the one-sided
        # closure directly through a fixed verdict on a separable variant
        v = decide_fixed(_fork_spec(), 1, 1)
        handle = v.separator
        target = capped_image(("a",), 1, 1)
        for w in ((), ("a",), ("a", "a"), ("b",), ("a", "b")):
            expect = capped_image(w, 1, 1) == target
            assert separator_membership(handle, w) is expect
        del spec

    def test_explicit_automaton_agrees(self):
        v = decide_fixed(_fork_spec(), 2, 1)
        handle = v.separator
        nfa, i, f = separator_automaton(handle)
        # deterministic and complete: one successor per state and letter
        delta = nfa.delta()
        assert len(delta) == nfa.n_states * len(nfa.alphabet)
        assert all(len(succs) == 1 for succs in delta.values())
        rng = random.Random(5)
        for _ in range(100):
            w = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(0, 6)))
            assert accepts(nfa, i, f, w) == separator_membership(handle, w)

    def test_separator_contains_l1_excludes_l2(self):
        rng = random.Random(6)
        checked = 0
        for seed in range(40):
            spec = gen_random(200 + seed, 3, 2, 0.35)
            v = decide_fixed(spec, 1, 1)
            if v.separable is not True:
                continue
            checked += 1
            handle = v.separator
            for w in sample_words(spec.nfa, spec.i1, spec.f1, 10, rng):
                assert separator_membership(handle, w) is True
            for w in sample_words(spec.nfa, spec.i2, spec.f2, 10, rng):
                assert separator_membership(handle, w) is False
        assert checked >= 3


class TestSigProbe:
    def test_agrees_with_signature_oracle(self):
        rng = random.Random(99)
        for seed in range(30):
            spec = gen_random(300 + seed, rng.randint(1, 4), rng.randint(1, 2), 0.35)
            for k, d in ((1, 1), (1, 2), (2, 1)):
                res = _sig_probe(spec, k, d, EngineConfig())
                if exact_fixed_oracle(spec, k, d) == "inseparable":
                    assert res is False, (seed, k, d)
                else:
                    assert res == language_signatures(
                        spec.nfa, spec.i1, spec.f1, k, d
                    ), (seed, k, d)

    def test_budget_gives_none(self):
        assert _sig_probe(gen_parity(), 2, 1, EngineConfig(state_budget=1)) is None

    def test_empty_l1_is_separable(self):
        # an empty L1 has an empty signature set, which is falsy but still
        # a separable probe; its handle accepts no word
        spec = _fork_spec()
        spec = LangSpec(spec.nfa, frozenset(), spec.f1, spec.i2, spec.f2)
        cfg = EngineConfig()
        assert _sig_probe(spec, 1, 1, cfg) == frozenset()
        v = _fallback(spec, cfg, problem="ltt")
        assert v.separable is True and (v.k, v.d) == (1, 1)
        assert v.notes["via"] == "fixed-probe"
        rng = random.Random(8)
        for _ in range(50):
            w = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(0, 6)))
            assert separator_membership(v.separator, w) is False


def _reference_walk(nfa, starts, k, d, budget, keep=None):
    """The window walk on uninterned counts: the new states it reaches, in
    breadth-first order, with counts a frozenset of (Profile, count) pairs.
    Raises AnnotationBudgetError instead of exceeding budget states."""
    kl, kr = split_width(k)
    delta = out_edges(nfa)
    seen = set()
    queue = []
    for q0 in set(starts):
        st = (q0, (), frozenset(), 0)
        seen.add(st)
        queue.append(st)
        yield st
    while queue:
        q, buf, counts, fill = queue.pop(0)
        for (a, q2) in delta.get(q, ()):
            nbuf = (buf + (a,))[-(kl + kr):]
            cdict = dict(counts)
            pos = len(nbuf) - kr
            if pos >= 0:
                p = Profile(nbuf[max(0, pos - kl):pos], nbuf[pos:], k)
                cdict[p] = min(d, cdict.get(p, 0) + 1)
            dst = (q2, nbuf, frozenset(cdict.items()), min(fill + 1, kl + kr))
            if dst in seen or (keep is not None and not keep(dst[2])):
                continue
            if len(seen) >= budget:
                raise AnnotationBudgetError("budget")
            seen.add(dst)
            queue.append(dst)
            yield dst


def _reference_flush(buf, counts, k, d, n):
    kl, kr = split_width(k)
    cdict = dict(counts)
    for x in range(max(0, n - kr + 1), n):
        pos = x - (n - len(buf))
        p = Profile(buf[max(0, pos - kl):pos], buf[pos:pos + kr], k)
        cdict[p] = min(d, cdict.get(p, 0) + 1)
    return frozenset(cdict.items())


def _reference_meets(nfa, i, f, targets, k, d, budget):
    """_meets with each state's counts checked against every target."""
    target_dicts = [dict(t) for t in targets]

    def keep(counts):
        return any(all(c <= t.get(p, 0) for (p, c) in counts) for t in target_dicts)

    try:
        for q, buf, counts, fill in _reference_walk(nfa, i, k, d, budget, keep):
            if q in f and _reference_flush(buf, counts, k, d, fill) in targets:
                return True
    except AnnotationBudgetError:
        return None
    return False


def _reference_probe(spec, k, d, budget):
    try:
        targets = {
            _reference_flush(buf, counts, k, d, fill)
            for q, buf, counts, fill in _reference_walk(spec.nfa, spec.i1, k, d, budget)
            if q in spec.f1
        }
    except AnnotationBudgetError:
        return None
    shared = _reference_meets(spec.nfa, spec.i2, spec.f2, targets, k, d, budget)
    if shared is None:
        return None
    return False if shared else frozenset(targets)


class TestWindowSearchReference:
    """The interned window search against a walk on frozenset counts that
    checks every target in turn, budgets included."""

    KD = [(k, d) for k in (1, 2, 3) for d in (1, 2, 3)]

    @pytest.mark.parametrize("budget", [500_000, 40, 8, 2])
    def test_sig_probe(self, budget):
        rng = random.Random(77)
        cfg = EngineConfig(state_budget=budget)
        outcomes = set()
        for seed in range(40):
            spec = gen_random(700 + seed, rng.randint(1, 3), rng.randint(1, 2), 0.35)
            k, d = rng.choice(self.KD)
            got = _sig_probe(spec, k, d, cfg)
            assert got == _reference_probe(spec, k, d, budget), (seed, k, d)
            outcomes.add(got if got is None or got is False else "sigs")
        if budget == 2:
            assert None in outcomes

    @pytest.mark.parametrize("budget", [500_000, 30, 5])
    def test_meets(self, budget):
        # targets: a random part of L1's signatures, and single signatures
        # of sampled words, the shape of a membership query
        rng = random.Random(78)
        outcomes = set()
        for seed in range(25):
            spec = gen_random(800 + seed, rng.randint(1, 3), rng.randint(1, 2), 0.4)
            k, d = rng.choice(self.KD)
            sigs = sorted(language_signatures(spec.nfa, spec.i2, spec.f2, k, d), key=repr)
            words = sample_words(spec.nfa, spec.i1, spec.f1, 3, rng, max_len=8)
            words += [tuple(rng.choice(spec.nfa.alphabet) for _ in range(rng.randint(0, 5)))]
            for targets in [set(rng.sample(sigs, len(sigs) // 2))] + [
                {signature_of(w, k, d)} for w in words
            ]:
                args = (spec.nfa, spec.i1, spec.f1, targets, k, d, budget)
                got = _meets(*args)
                assert got is _reference_meets(*args), (seed, k, d, targets)
                outcomes.add(got)
        assert {True, False} <= outcomes
        if budget == 5:
            assert None in outcomes


def _full_separator(handle):
    """The explicit separator by the unpruned walk: every window state over
    the whole alphabet, the accepting ones marked after the walk."""
    spec, k, d = handle.spec, handle.k, handle.d
    sigs = handle.signatures
    if sigs is None:
        sigs = language_signatures(spec.nfa, spec.i1, spec.f1, k, d)
    alphabet = tuple(spec.nfa.alphabet)
    win = Windows(k, d)
    index = {}
    transitions = set()
    loops = {0: [(a, 0) for a in alphabet]}
    for src, a, st, new in window_walk(loops, (0,), win, 500_000):
        if new:
            index[st] = len(index)
        if src is not None:
            transitions.add((index[src], a, index[st]))
    goals = {win.counts_of(sig) for sig in sigs}
    f = frozenset(
        n for (_q, buf, counts, fill), n in index.items()
        if win.flush(buf, counts, fill) in goals
    )
    return Nfa(len(index), alphabet, frozenset(transitions)), frozenset([0]), f


class TestPrunedSeparator:
    def test_same_words_as_full_walk(self):
        # the handles of separable fixed verdicts, which enumerate L1's
        # images on demand; a probe handle, which holds them, is checked on
        # the threshold family below
        handles = []
        for seed in range(120):
            spec = gen_random(30_000 + seed, 3, 2, 0.35)
            for k, d in ((1, 1), (1, 2), (2, 1)):
                handles.append(decide_fixed(spec, k, d).separator)
        handles = [h for h in handles if h is not None]
        words = [
            w for n in range(7) for w in itertools.product(("a", "b"), repeat=n)
        ]
        pruned = full = 0
        for handle in handles:
            nfa, i, f = separator_automaton(handle)
            ref = _full_separator(handle)
            delta = nfa.delta()
            assert len(delta) == nfa.n_states * 2
            assert all(len(succs) == 1 for succs in delta.values())
            for w in words:
                assert accepts(nfa, i, f, w) == accepts(*ref, w), (handle, w)
            pruned += nfa.n_states
            full += ref[0].n_states
        assert len(handles) >= 40 and pruned < full

    def test_threshold_family_fits(self):
        # the unpruned walk passes 500,000 states here
        spec = gen_threshold_family(2)
        handle = decide_ltt(spec).separator
        assert (handle.k, handle.d) == (2, 1)
        nfa, i, f = separator_automaton(handle)
        assert (nfa.n_states, len(f)) == (21, 8)
        rng = random.Random(12)
        for _ in range(200):
            w = tuple(rng.choice(spec.nfa.alphabet) for _ in range(rng.randint(0, 10)))
            assert accepts(nfa, i, f, w) == separator_membership(handle, w), w


class TestProbeHandle:
    """Membership on the fallback's probe handle and on decide_fixed's
    handle, checked against the signature sets and the explicit automaton,
    with no MILP solve allowed."""

    @pytest.mark.parametrize("spec, decide", [
        (gen_threshold_family(1), decide_ltt),
        (gen_sat_instance(Cnf3(1, ((1, 1, 1), (-1, -1, -1)))), decide_lt),
    ], ids=["threshold-1", "sat-core"])
    def test_membership_matches_references(self, spec, decide, monkeypatch):
        v = decide(spec)
        assert v.separable is True and v.notes["via"] == "fixed-probe"
        probe_handle = v.separator
        k, d = probe_handle.k, probe_handle.d
        fixed_handle = decide_fixed(spec, k, d).separator
        assert fixed_handle.signatures is None
        sigs = language_signatures(spec.nfa, spec.i1, spec.f1, k, d)
        nfa, i, f = separator_automaton(probe_handle)
        sigma = spec.nfa.alphabet
        rng = random.Random(11)
        words = [
            tuple(rng.choice(sigma) for _ in range(rng.randint(0, 8)))
            for _ in range(100)
        ]
        words += sample_words(spec.nfa, spec.i1, spec.f1, 10, rng)

        def no_solve(_model):
            raise AssertionError("membership solved a MILP")

        monkeypatch.setattr(pk.MipModel, "solve", no_solve)
        handles = (probe_handle, fixed_handle)
        for w in words:
            expect = signature_of(w, k, d) in sigs
            assert accepts(nfa, i, f, w) == expect, w
            for handle in handles:
                assert separator_membership(handle, w) is expect, w
        members = sum(signature_of(w, k, d) in sigs for w in words)
        assert 0 < members < len(words)
        for handle in handles:
            with pytest.raises(ValueError):
                separator_membership(handle, ("z",))
        # past its state budget the search answers None, never a guess
        starved = dataclasses.replace(fixed_handle, state_budget=1)
        member = next(w for w in words if w and signature_of(w, k, d) in sigs)
        assert separator_membership(starved, member) is None


class TestEngineConfig:
    def test_budget_flags_surface(self):
        cfg = EngineConfig(solver_cap=1)
        spec = gen_parity()
        v = decide_fixed(spec, 1, 1, cfg)
        # with a cap this tight the verdict may degrade, but never to a
        # silently wrong answer: either inseparable (correct) or unknown
        assert v.separable in (False, None)
        if v.separable is None:
            assert v.flags

    def test_box_bound_flag_on_every_path(self):
        # solver_cap=1 leaves each match UNSAT but uncertain: the box bound
        # ran out, not the solver
        cfg = EngineConfig(solver_cap=1)
        spec = _one_versus_two_b()
        for v in (decide_fixed(spec, 1, 1, cfg), decide_lt(spec, cfg), decide_ltt(spec, cfg)):
            assert v.separable is None
            assert v.flags == ["box-bound"], v.problem
        # L1 = {a} and L2 = {b} share no letter, so their matches are
        # settled before any model, and the cap does not apply
        spec = _fork_spec()
        for v in (decide_fixed(spec, 1, 1, cfg), decide_lt(spec, cfg), decide_ltt(spec, cfg)):
            assert v.separable is True
            assert v.flags == [], v.problem

    def test_state_budget_spares_intersecting_specs(self):
        # a common word decides before any annotation, so no budget is spent
        v = decide_fixed(gen_random(28, 3, 2, 0.3), 4, 1, EngineConfig(state_budget=3))
        assert (v.status, v.flags) == ("inseparable", [])
        assert (v.witness.w1, v.witness.w2) == (("a", "b"), ("a", "b"))

    def test_state_budget_gives_unknown(self):
        # annotation past the state budget answers unknown with a flag
        v = decide_fixed(gen_parity(), 4, 1, EngineConfig(state_budget=3))
        assert v.separable is None
        assert v.flags == ["state-budget"]
        assert (v.k, v.d) == (4, 1)


class TestBudgetExits:
    """The answers of the LT and LTT settlements when a solver or monoid
    budget runs out on the reduced automaton."""

    def test_ltt_unknown_when_match_limit_stalls(self, monkeypatch):
        monkeypatch.setattr(pk, "match_limit", lambda *args: pk.MatchResult(pk.UNKNOWN))
        v = decide_ltt(gen_parity())
        assert (v.separable, v.k, v.d) == (None, 1, "limit")
        assert v.flags == ["solver-budget"]

    def test_ltt_incomplete_when_doubling_runs_out(self, monkeypatch):
        # parity matches at every threshold; without its pump certificate
        # the doubling search stops at DOUBLING_MAX without an answer
        monkeypatch.setattr(
            pk, "match_limit", lambda *args: pk.MatchResult(pk.UNSAT, certain=False)
        )
        monkeypatch.setattr(separ, "DOUBLING_MAX", 2)
        v = decide_ltt(gen_parity())
        assert (v.separable, v.k, v.d) == (None, 1, "limit")
        assert v.flags == ["certificate-incomplete"]

    def test_lt_separable_without_width_past_monoid_budget(self, monkeypatch):
        def over_budget(nfa):
            raise MonoidBudgetError("over budget")

        monkeypatch.setattr(separ, "transition_monoid", over_budget)
        v = decide_lt(_fork_spec())
        assert (v.separable, v.k, v.d) == (True, 1, 1)
        assert "direct_width" not in v.notes


# a satisfiable formula decided through the fallback's pool exact match
SAT_POOL_CNF = Cnf3(6, ((6, -1, -4), (-1, -1, -5), (4, 5, 5)))


def _reparsed(spec):
    """An equal spec that shares no object with the original."""
    copy = parse_spec(serialize_spec(spec))
    assert copy == spec and copy is not spec
    return copy


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _fields(v):
    return (v.status, v.k, v.d, v.flags, v.notes, v.witness)


class TestEvidenceMemo:
    """LT and LTT on one spec share the class-independent work through the
    evidence record of the last spec asked."""

    def test_pool_path_is_not_repeated(self, monkeypatch):
        spec = gen_sat_instance(SAT_POOL_CNF)
        calls = {}
        for owner, name in ((separ, "_sig_probe"), (separ, "build_reduced_pool"),
                            (pk.MipModel, "solve")):
            _count_calls(monkeypatch, owner, name, calls)
        vltt = decide_ltt(spec)
        assert vltt.notes == {"via": "exact-match-pool"}
        assert set(calls) == {"_sig_probe", "build_reduced_pool", "solve"}
        calls.clear()
        vlt = decide_lt(_reparsed(spec))
        assert calls == {}
        assert (vlt.status, vlt.notes) == ("inseparable", {"via": "exact-match-pool"})

    def test_reduction_is_not_repeated(self, monkeypatch):
        spec = gen_random(22, 5, 1, 0.3)
        calls = {}
        _count_calls(monkeypatch, separ, "build_reduced", calls)
        assert decide_ltt(spec).notes == {"usable_threshold": 1, "on": "reduced"}
        assert decide_lt(_reparsed(spec)).status == "separable"
        assert calls == {"build_reduced": 1}

    @pytest.mark.parametrize("spec", [
        gen_sat_instance(SAT_POOL_CNF),
        gen_sat_instance(Cnf3(1, ((1, 1, 1), (-1, -1, -1)))),
        gen_random(22, 5, 1, 0.3),
        gen_parity(),
        gen_threshold_family(1),
        _fork_spec(),
    ], ids=["sat-pool", "sat-core", "reduce-r22", "parity", "threshold-1", "fork"])
    def test_memo_verdicts_equal_fresh_ones(self, spec):
        for first, second in ((decide_ltt, decide_lt), (decide_lt, decide_ltt)):
            separ._evidence.cache_clear()
            fresh = _fields(second(spec))
            separ._evidence.cache_clear()
            first(spec)
            assert _fields(second(_reparsed(spec))) == fresh

    def test_memo_holds_one_spec(self, monkeypatch):
        a, b = gen_random(22, 5, 1, 0.3), gen_random(29, 5, 1, 0.3)
        calls = {}
        _count_calls(monkeypatch, separ, "build_reduced", calls)
        decide_ltt(a)
        decide_ltt(b)
        assert separ._evidence.cache_info().currsize == 1
        decide_lt(a)
        assert calls == {"build_reduced": 3}

    def test_configs_share_nothing(self):
        spec = gen_sat_instance(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
        assert decide_lt(spec).notes == {"via": "fixed-probe"}
        v = decide_lt(spec, EngineConfig(state_budget=1))
        assert v.status == "unknown"
        assert v.flags == ["reduction-budget", "search-exhausted"]

    @pytest.mark.parametrize("spec", [
        gen_sat_instance(Cnf3(1, ((1, 1, 1), (-1, -1, -1)))), gen_parity(),
    ], ids=["fallback", "reduced"])
    def test_verdicts_do_not_share_notes_or_flags(self, spec):
        for decide in (decide_lt, decide_ltt):
            first, second = decide(spec), decide(spec)
            kept = (list(second.flags), dict(second.notes))
            first.flags.append("mutated")
            first.notes["mutated"] = True
            assert (second.flags, second.notes) == kept
