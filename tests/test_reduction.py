"""Width-1 reduction: synchronizable sets, the reduced automaton, and
pattern decoding/pumping."""

import os
import subprocess
import sys

import pytest

import ltsep
from ltsep.automata import LangSpec, Nfa, accepts
from ltsep.profiles import equivalent
from ltsep import monoid, reduction, separ
from ltsep import parikh as pk
from ltsep.reduction import (
    DPattern,
    SyncBudgetError,
    build_reduced,
    build_reduced_pool,
    common_mid,
    decode_pattern,
    find_run,
    pump_pattern,
    sync_sets,
)
from ltsep.testkit import Cnf3, gen_parity, gen_random, gen_sat_instance


def _catalog_of(nfa, i1, f1, i2, f2):
    catalog, loops = sync_sets(nfa, i1, f1, i2, f2)
    return {b.pairs: b.witness_mid for b in catalog}, loops


class TestSynchronization:
    def test_common_mid(self):
        spec = gen_parity()
        mids, _loops = _catalog_of(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2)
        assert mids[frozenset([(0, 1)])] == ("a",)
        assert mids[frozenset([(0, 0), (1, 1)])] == ()
        # no single word maps 0 -> 0 and 0 -> 1 in a deterministic automaton
        assert frozenset([(0, 0), (0, 1)]) not in mids

    def test_common_mid_scans_in_order(self):
        covers = [
            (frozenset([(0, 1)]), ("a",)),
            (frozenset([(0, 1), (1, 0)]), ("b",)),
            (frozenset([(0, 1), (1, 0), (1, 1)]), ("a", "a")),
        ]
        assert common_mid(covers, frozenset([(0, 1)])) == ("a",)
        assert common_mid(covers, frozenset([(1, 0)])) == ("b",)
        assert common_mid(covers, frozenset([(1, 1), (0, 1)])) == ("a", "a")
        assert common_mid(covers, frozenset([(0, 0)])) is None

    def test_common_loop(self):
        spec = gen_parity()
        _mids, loops = _catalog_of(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2)
        # a is no idempotent; aa is, and acts as the identity, yet a loop
        # must be nonempty
        assert loops == {frozenset([0, 1]): ("a", "a")}
        chain = Nfa(2, ("a",), frozenset([(0, "a", 1)]))
        ends = frozenset([0]), frozenset([1])
        mids, loops = _catalog_of(chain, *ends, *ends)
        assert mids[frozenset([(0, 1)])] == ("a",)
        # no element of the chain loops anywhere, so it has no loop label
        assert loops == {}

    def test_sync_sets_parity(self):
        spec = gen_parity()
        catalog, loops = sync_sets(
            spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2
        )
        by_name = {b.name(): b for b in catalog}
        # the swap pair set is synchronizable with loops on both sides
        swap = by_name["i:[0,1]{(0,1),(1,0)}[0,1]"]
        assert swap.left_set == swap.right_set == frozenset([0, 1])
        assert swap.witness_left == swap.witness_right == ("a", "a")
        assert loops[frozenset([0, 1])] == ("a", "a")

    def test_candidate_budget(self, monkeypatch):
        spec = gen_random(1, 6, 2, 0.6)
        monkeypatch.setattr(reduction, "USEFUL_PAIR_BUDGET", 1)
        with pytest.raises(SyncBudgetError):
            sync_sets(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2)
        with pytest.raises(SyncBudgetError):
            build_reduced(spec)
        # parity has the four useful pairs of its two states
        parity = gen_parity()
        monkeypatch.setattr(reduction, "USEFUL_PAIR_BUDGET", 3)
        with pytest.raises(SyncBudgetError, match="over 3 useful state pairs"):
            build_reduced(parity)
        monkeypatch.setattr(reduction, "USEFUL_PAIR_BUDGET", 4)
        assert build_reduced(parity).nfa.alphabet

    def test_letter_names_distinct(self, monkeypatch):
        # a symbol names one letter: its kind, pairs and loop labels
        seen = []
        real_assemble = reduction._assemble

        def assemble(spec, catalog):
            seen.append([b.name() for b in catalog])
            return real_assemble(spec, catalog)

        monkeypatch.setattr(reduction, "_assemble", assemble)
        specs = [gen_parity(), gen_random(1, 4, 2, 0.3)]
        specs += [gen_random(s, 3, 2, 0.35) for s in range(6)]
        for spec in specs:
            try:
                build_reduced(spec)
            except SyncBudgetError:
                pass
            build_reduced_pool(spec)
        assert len(seen) > len(specs) and sum(map(len, seen)) > 100
        for names in seen:
            assert len(set(names)) == len(names)

    def test_catalog_words_run(self):
        specs = [gen_parity()] + [gen_random(s, 3, 2, 0.35) for s in range(6)]
        checked = 0
        for spec in specs:
            nfa = spec.nfa
            catalog, loops = sync_sets(nfa, spec.i1, spec.f1, spec.i2, spec.f2)
            for b in catalog:
                for (p, q) in b.pairs:
                    assert accepts(nfa, {p}, {q}, b.witness_mid)
                for word, states in (
                    (b.witness_left, b.left_set),
                    (b.witness_right, b.right_set),
                ):
                    if word is not None:
                        assert word == loops[states]
                checked += 1
            for states, word in loops.items():
                assert word
                for q in states:
                    assert accepts(nfa, {q}, {q}, word)
        assert checked > 100

    def test_semigroup_budget(self, monkeypatch):
        monkeypatch.setattr(
            reduction, "transition_semigroup",
            lambda nfa: monoid.transition_semigroup(nfa, budget=1),
        )
        spec = gen_parity()
        with pytest.raises(SyncBudgetError):
            sync_sets(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2)
        calls = []
        real_fallback = separ._fallback

        def fallback(*args, **kwargs):
            calls.append(args)
            return real_fallback(*args, **kwargs)

        monkeypatch.setattr(separ, "_fallback", fallback)
        v = separ.decide_ltt(spec)
        assert len(calls) == 1
        assert "reduction-budget" in v.flags
        assert v.separable is not True


class TestBuildReduced:
    def test_parity_shape(self):
        spec = gen_parity()
        red = build_reduced(spec)
        assert red.i1 and red.f1 and red.i2 and red.f2
        # entry and exit copies stay apart even for shared original states
        assert red.i1.isdisjoint(red.f1)
        # every catalog letter appears in the automaton's alphabet
        assert set(red.catalog) == set(red.nfa.alphabet)

    def test_reduced_match_decodes_and_pumps(self):
        spec = gen_parity()
        red = build_reduced(spec)
        sys1 = pk.flow_system(red.nfa, red.i1, red.f1)
        sys2 = pk.flow_system(red.nfa, red.i2, red.f2)
        letters = sorted(set(sys1.nfa.alphabet) | set(sys2.nfa.alphabet))
        for d in (1, 2):
            res = pk.match_fixed(sys1, sys2, letters, d)
            assert res.status == pk.SAT
            r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
            r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2)
            pat = decode_pattern(red, r1, r2, d)
            for ell in (1, 2, 3):
                w1, w2 = pump_pattern(pat, ell, d)
                assert accepts(spec.nfa, spec.i1, spec.f1, w1)
                assert accepts(spec.nfa, spec.i2, spec.f2, w2)
                assert equivalent(w1, w2, ell, d)

    def test_decode_rejects_mismatched_words(self):
        spec = gen_parity()
        red = build_reduced(spec)
        sys1 = pk.flow_system(red.nfa, red.i1, red.f1)
        sys2 = pk.flow_system(red.nfa, red.i2, red.f2)
        letters = sorted(set(sys1.nfa.alphabet) | set(sys2.nfa.alphabet))
        res = pk.match_fixed(sys1, sys2, letters, 1)
        r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
        with pytest.raises(ValueError):
            decode_pattern(red, r1, r1 + r1, 5)

    def test_weak_letter_decodes_to_its_word(self):
        # L1 = L2 = {a}: each side reads the one weak letter of the pair
        # (0, 1), and a match on it decodes to the shared word a
        nfa = Nfa(2, ("a",), frozenset([(0, "a", 1)]))
        one = frozenset([0]), frozenset([1])
        spec = LangSpec(nfa, *one, *one)
        red = build_reduced(spec)
        sys1 = pk.flow_system(red.nfa, red.i1, red.f1)
        sys2 = pk.flow_system(red.nfa, red.i2, red.f2)
        letters = sorted(set(sys1.nfa.alphabet) | set(sys2.nfa.alphabet))
        res = pk.match_fixed(sys1, sys2, letters, 1)
        assert res.status == pk.SAT
        r1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
        r2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2)
        assert r1 == r2 and len(r1) == 1
        assert red.catalog[r1[0]].kind == "w"
        assert red.catalog[r1[0]].pairs == frozenset([(0, 1)])
        assert decode_pattern(red, r1, r2, 1) == DPattern(word=("a",), origin=spec)


class TestFindRun:
    def test_run_endpoints_and_labels(self):
        spec = gen_parity()
        run = find_run(spec.nfa, spec.i1, spec.f1, ("a", "a"))
        assert run == [0, 1, 0]
        assert find_run(spec.nfa, spec.i1, spec.f1, ("a",)) is None


class TestPool:
    def test_pool_letters_decode(self):
        cnf = Cnf3(1, ((1, 1, 1), (-1, -1, -1)))
        spec = gen_sat_instance(cnf)
        pool = build_reduced_pool(spec)
        assert pool.nfa.alphabet  # self-loop synchronization finds letters
        # every pool letter must re-verify against the original automaton
        for sym, b in pool.catalog.items():
            for (p, q) in b.pairs:
                assert accepts(spec.nfa, {p}, {q}, b.witness_mid)
            if b.witness_left:
                for p in b.left_set:
                    assert accepts(spec.nfa, {p}, {p}, b.witness_left)
            if b.witness_right:
                for q in b.right_set:
                    assert accepts(spec.nfa, {q}, {q}, b.witness_right)

    def test_pool_loop_letter_independent_of_hash_seed(self):
        # a and c both self-loop at exactly state 1; set iteration order
        # follows PYTHONHASHSEED, so only separate processes show the choice
        code = (
            "from ltsep.reduction import build_reduced_pool\n"
            "from ltsep.testkit import gen_random\n"
            "pool = build_reduced_pool(gen_random(90018, 3, 3, 0.35))\n"
            "print({b.left_set: b.witness_left for b in pool.catalog.values()}"
            "[frozenset([1])])\n"
        )
        src = os.path.dirname(os.path.dirname(ltsep.__file__))
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs == ["('a',)\n", "('a',)\n"]

    def test_pool_respects_letter_cap(self):
        cnf = Cnf3(2, ((1, 2, 2), (-1, -2, -2)))
        spec = gen_sat_instance(cnf)
        pool = build_reduced_pool(spec, max_letters=3)
        assert len(pool.nfa.alphabet) <= 3


def _reference_blocks(loops, mids, i_all, f_all):
    """_blocks as a plain filter: every kind and pair of labels scans the
    middle's whole relation."""
    ends = [("w", None, None)]
    ends += [("p", None, dr) for dr in loops]
    ends += [("s", dl, None) for dl in loops]
    ends += [("i", dl, dr) for dl in loops for dr in loops]
    catalog, seen = [], set()
    for rel, mid in mids:
        for kind, dl, dr in ends:
            lefts = i_all if dl is None else dl
            rights = f_all if dr is None else dr
            pairs = frozenset((p, q) for (p, q) in rel if p in lefts and q in rights)
            if pairs and (kind, pairs, dl, dr) not in seen:
                seen.add((kind, pairs, dl, dr))
                catalog.append(reduction.SyncSet(
                    pairs, kind, mid, loops.get(dl), loops.get(dr), dl, dr
                ))
    return catalog


class TestBlocks:
    """The bucketed catalog is the plain filter's: the same letters in the
    same order, with the same pairs (in the same iteration order, which
    the wiring of the reduced automaton follows) and witnesses."""

    @staticmethod
    def _compare(monkeypatch, build, specs):
        real = reduction._blocks
        letters = []

        def checking(*args):
            got = real(*args)
            want = _reference_blocks(*args)
            assert got == want
            assert [list(b.pairs) for b in got] == [list(b.pairs) for b in want]
            letters.append(len(got))
            return got

        monkeypatch.setattr(reduction, "_blocks", checking)
        for spec in specs:
            try:
                build(spec)
            except SyncBudgetError:
                pass
        return letters

    def test_criterion_6_pools(self, monkeypatch):
        from test_acceptance import _formula_batch

        specs = [gen_sat_instance(cnf) for cnf in _formula_batch()]
        letters = self._compare(monkeypatch, build_reduced_pool, specs)
        assert len(letters) == 50 and sum(letters) > 5_000

    def test_unary_specs(self, monkeypatch):
        # the reduce-unary family: 5 states, one letter, density 0.3
        specs = [gen_random(s, 5, 1, 0.3) for s in range(120)]
        letters = self._compare(monkeypatch, build_reduced, specs)
        assert len(letters) > 50 and sum(letters) > 300
