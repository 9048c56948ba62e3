"""Flow systems: feasibility, threshold matching, pump certificates,
and Eulerian word reconstruction."""

import itertools
import random
import warnings
from functools import partial

import pytest

from ltsep.automata import Nfa, accepts, reachable, shortest_common_word, trim
from ltsep import parikh as pk
from ltsep.reduction import build_reduced, build_reduced_pool
from ltsep.testkit import Cnf3, gen_parity, gen_random, gen_sat_instance


def _letter_counts(w):
    counts = {}
    for a in w:
        counts[a] = counts.get(a, 0) + 1
    return counts


def _flow_counts(assignment):
    """The letter counts of the word a flow spells."""
    counts = {}
    for (_p, a, _q), m in assignment.edge_mult.items():
        counts[a] = counts.get(a, 0) + m
    return counts


def _words(nfa, i, f, max_len):
    """Every word of L(nfa, i, f) up to max_len."""
    out = set()
    layer = [((), set(i))]
    for _ in range(max_len + 1):
        nxt = []
        for w, cur in layer:
            if cur & set(f):
                out.add(w)
            for a in nfa.alphabet:
                succ = nfa.step(cur, a)
                if succ:
                    nxt.append((w + (a,), succ))
        layer = nxt
    return out


def _count_vectors(nfa, i, f, max_len):
    """Letter-count vectors of all accepted words up to max_len."""
    words = _words(nfa, i, f, max_len)
    return {tuple(sorted(_letter_counts(w).items())) for w in words}


class TestFeasible:
    def test_parity_counts(self):
        spec = gen_parity()
        sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
        assert pk.feasible(sys1, {"a": 2}).status == pk.SAT
        assert pk.feasible(sys1, {"a": 3}).status == pk.UNSAT
        assert pk.feasible(sys1, {"a": 0}).status == pk.SAT

    def test_empty_language(self):
        nfa = Nfa(2, ("a",), frozenset())
        sys1 = pk.flow_system(nfa, {0}, {1})
        assert pk.feasible(sys1, {"a": 1}).status == pk.UNSAT

    def test_realized_flow_reconstructs_word(self):
        spec = gen_parity()
        sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
        res = pk.feasible(sys1, {"a": 4})
        assert res.status == pk.SAT
        w = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment)
        assert w == ("a",) * 4

    def test_matches_brute_enumeration(self):
        # the flow encoding (with its connectivity constraints) must accept
        # exactly the letter-count vectors realized by some word
        cases = []
        for seed in range(25):
            spec = gen_random(seed, 3, 2, 0.4)
            sigma = spec.nfa.alphabet
            rng = random.Random(seed)
            targets = set(_count_vectors(spec.nfa, spec.i1, spec.f1, 4))
            for _ in range(6):
                targets.add(
                    tuple(
                        sorted(
                            (a, rng.randint(0, 2))
                            for a in sigma
                            if rng.random() < 0.8
                        )
                    )
                )
            cases.append((spec.nfa, spec.i1, spec.f1, targets))
        # systems where some vectors are met only by a conserved flow with
        # a cycle the source never reaches: a | b c^* b, where (a:1, c:1)
        # puts the c-loop beside the a-path, and a | c (b b)^* a, where
        # (a:1, b:2) does the same with a two-state cycle (both cut off by
        # the seeded rows); and a | c^* b from a second initial state, where
        # (a:1, c:1) loops at that state, which only a cut rules out.
        # Every vector with counts up to 2 is asked
        for n, trans, initial, final in (
            (3, [(0, "a", 2), (0, "b", 1), (1, "c", 1), (1, "b", 2)], {0}, 2),
            (4, [(0, "a", 1), (0, "c", 2), (2, "b", 3), (3, "b", 2), (2, "a", 1)], {0}, 1),
            (3, [(0, "a", 2), (1, "c", 1), (1, "b", 2)], {0, 1}, 2),
        ):
            nfa = Nfa(n, ("a", "b", "c"), frozenset(trans))
            targets = {
                tuple(zip(nfa.alphabet, cs)) for cs in itertools.product(range(3), repeat=3)
            }
            cases.append((nfa, initial, {final}, targets))
        for nfa, i, f, targets in cases:
            sys1 = pk.flow_system(nfa, i, f)
            realized = _count_vectors(nfa, i, f, 4)
            for vec in targets:
                if sum(c for _a, c in vec) > 4:
                    continue
                normal = tuple((a, c) for a, c in vec if c)
                res = pk.feasible(sys1, dict(vec), cap=50)
                assert res.status in (pk.SAT, pk.UNSAT)
                assert (res.status == pk.SAT) == (normal in realized), (nfa, vec)
                if res.status == pk.SAT:
                    w = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment)
                    assert accepts(nfa, i, f, w)
                    assert tuple(sorted(_letter_counts(w).items())) == normal


class TestMatchFixed:
    def test_parity(self):
        spec = gen_parity()
        sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
        sys2 = pk.flow_system(spec.nfa, spec.i2, spec.f2)
        # both sides can push the a-count past any threshold
        res = pk.match_fixed(sys1, sys2, ["a"], 1)
        assert res.status == pk.SAT
        w1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1)
        w2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2)
        assert len(w1) % 2 == 0 and len(w2) % 2 == 1
        # but exact equality of counts is impossible (even vs odd)
        exact = pk.match_fixed(sys1, sys2, ["a"], None)
        assert exact.status == pk.UNSAT and exact.certain

    def test_threshold_letters_respected(self):
        spec = gen_parity()
        sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
        sys2 = pk.flow_system(spec.nfa, spec.i2, spec.f2)
        for d in (1, 2, 5):
            res = pk.match_fixed(sys1, sys2, ["a"], d)
            assert res.status == pk.SAT
            c1 = _flow_counts(res.assignment1).get("a", 0)
            c2 = _flow_counts(res.assignment2).get("a", 0)
            assert c1 == c2 or (c1 >= d and c2 >= d)

    def test_empty_side(self):
        nfa = Nfa(2, ("a",), frozenset([(0, "a", 1)]))
        alive = pk.flow_system(nfa, {0}, {1})
        dead = pk.flow_system(nfa, {1}, {0})
        assert pk.match_fixed(alive, dead, ["a"], 1).status == pk.UNSAT


def _cycle(word, extra=()):
    """The flow system of word^+: a fresh initial state 0 reading word[0]
    into the cycle 1 -> 2 -> ... -> n -> 1 whose final state n closes it."""
    n = len(word)
    trans = [(0, word[0], 1), (n, word[0], 1)]
    trans += [(q, word[q], q + 1) for q in range(1, n)]
    trans += extra
    nfa = Nfa(n + 1, tuple(sorted({a for _p, a, _q in trans})), frozenset(trans))
    return pk.flow_system(nfa, {0}, {n})


def _first_box(sys1, sys2, letters, d):
    return pk._fixed_bound(sys1, sys2, letters, d)


def _boxed_objective(sys1, sys2, letters, d, box):
    """The optimum of match_fixed's model built at one box, None if UNSAT."""
    model, _s1, _s2, reqs = pk._match_model(sys1, sys2, letters, d, box)
    sol = pk._solve_connected(model, reqs)
    return None if sol is None else sum(sol)


class TestMatchFixedBox:
    def _record_boxes(self, monkeypatch):
        boxes = []
        real = pk._match_model

        def recording(*args):
            boxes.append(args[-1])
            return real(*args)

        monkeypatch.setattr(pk, "_match_model", recording)
        return boxes

    def test_costly_exact_match_is_solved_again_in_its_own_box(self, monkeypatch):
        # L1 = {a^7j}, L2 = {a^11j}: every exact match has 77t letters, so
        # the first answer costs 77 + 77 + 4 = 158, more than the box of 12
        # can make final, and the match is solved once more in the box 154
        sys1, sys2 = _cycle("a" * 7), _cycle("a" * 11)
        assert _first_box(sys1, sys2, ["a"], None) == 12
        boxes = self._record_boxes(monkeypatch)
        res = pk.match_fixed(sys1, sys2, ["a"], None)
        assert res.status == pk.SAT
        assert _flow_counts(res.assignment1) == {"a": 77}
        assert _flow_counts(res.assignment2) == {"a": 77}
        assert boxes == [12, 154]

    def test_resolve_in_the_answers_box_finds_a_cheaper_match(self, monkeypatch):
        # L1 = a^+ (b^5)^+ through a one-state a-loop, or (a^10)^+ (b^5)^+
        # through a 10-cycle; L2 = (a^5 b)^+.  The cheapest match, a^25 b^5,
        # crosses the a-loop 24 times, outside the first box of 17, where
        # only a^50 b^10 fits (cost 124); one solve in the box 124 - 4 = 120
        # finds the cheaper match, and the answer is final there
        trans = [(0, "a", 1), (1, "a", 1), (1, "b", 12), (0, "a", 2)]
        trans += [(q, "a", q + 1) for q in range(2, 11)]
        trans += [(11, "a", 2), (11, "b", 12)]
        trans += [(q, "b", q + 1) for q in range(12, 16)] + [(16, "b", 12)]
        sys1 = pk.flow_system(Nfa(17, ("a", "b"), frozenset(trans)), {0}, {16})
        sys2 = _cycle("aaaaab")
        assert _first_box(sys1, sys2, ["a", "b"], None) == 17
        assert _boxed_objective(sys1, sys2, ["a", "b"], None, 17) == 124
        boxes = self._record_boxes(monkeypatch)
        res = pk.match_fixed(sys1, sys2, ["a", "b"], None)
        assert res.status == pk.SAT
        assert _flow_counts(res.assignment1) == {"a": 25, "b": 5}
        assert _flow_counts(res.assignment2) == {"a": 25, "b": 5}
        assert boxes == [17, 120]
        assert _boxed_objective(sys1, sys2, ["a", "b"], None, 100_000) == 64

    def test_exact_match_outside_the_box_is_found_at_cap(self, monkeypatch):
        # L1 = (a^6 b)^+, L2 = (b^11)^+ with an a-loop on its final state:
        # every exact match puts 66t > 12 a's on that one loop, so the first
        # box is infeasible, and at d=None that is not final
        sys1 = _cycle("aaaaaab")
        sys2 = _cycle("b" * 11, extra=[(11, "a", 11)])
        assert _first_box(sys1, sys2, ["a", "b"], None) == 12
        boxes = self._record_boxes(monkeypatch)
        res = pk.match_fixed(sys1, sys2, ["a", "b"], None)
        assert res.status == pk.SAT
        assert _flow_counts(res.assignment1) == {"a": 66, "b": 11}
        assert _flow_counts(res.assignment2) == {"a": 66, "b": 11}
        assert boxes == [12, 100_000]

    def test_stall_after_the_first_box_keeps_only_a_boxed_match(self, monkeypatch):
        # a stall of every solve after the first keeps the box's SAT answer
        # (its flows are a match, perhaps not the cheapest), but not the
        # box's UNSAT, which is not final for an exact match
        real = pk._solve_connected
        calls = []

        def stall_after_first(model, reqs):
            calls.append(reqs[0].cap)
            if len(calls) > 1:
                raise pk.SolverStall("stalled")
            return real(model, reqs)

        monkeypatch.setattr(pk, "_solve_connected", stall_after_first)
        costly = pk.match_fixed(_cycle("a" * 7), _cycle("a" * 11), ["a"], None)
        assert costly.status == pk.SAT
        assert _flow_counts(costly.assignment1) == {"a": 77}
        assert calls == [12, 154]
        calls.clear()
        sys2 = _cycle("b" * 11, extra=[(11, "a", 11)])
        outside = pk.match_fixed(_cycle("aaaaaab"), sys2, ["a", "b"], None)
        assert outside.status == pk.UNKNOWN
        assert calls == [12, 100_000]

    def test_unsat_at_a_threshold_is_final_in_the_box(self, monkeypatch):
        # {eps} against {a} at d = 1: no match, and the first box proves it
        nfa = Nfa(2, ("a",), frozenset([(0, "a", 1)]))
        sys1, sys2 = pk.flow_system(nfa, {0}, {0}), pk.flow_system(nfa, {0}, {1})
        boxes = self._record_boxes(monkeypatch)
        res = pk.match_fixed(sys1, sys2, ["a"], 1)
        assert res.status == pk.UNSAT and res.certain
        assert boxes == [_first_box(sys1, sys2, ["a"], 1)]

    def test_letter_below_threshold_pins_cycles(self, monkeypatch):
        # L1 = (a^11 b)^+ against L2 = b^4 a^*, at d = 5: b stays below 5 in
        # L2, so both b counts are 4, which pins L1 to four periods and 44
        # a's, more than three times the larger state count; the box counts
        # the marks of every letter and finds the match in one solve
        sys1 = _cycle("a" * 11 + "b")
        trans = [(q, "b", q + 1) for q in range(4)] + [(4, "a", 4)]
        sys2 = pk.flow_system(Nfa(5, ("a", "b"), frozenset(trans)), {0}, {4})
        assert _first_box(sys1, sys2, ["a", "b"], 5) == 13 * (1 + 5 + 5)
        boxes = self._record_boxes(monkeypatch)
        res = pk.match_fixed(sys1, sys2, ["a", "b"], 5)
        assert res.status == pk.SAT
        assert _flow_counts(res.assignment1) == {"a": 44, "b": 4}
        assert _flow_counts(res.assignment2) == {"a": 5, "b": 4}
        assert len(boxes) == 1

    def test_endpoint_selectors_do_not_force_a_cap_solve(self, monkeypatch):
        # one-state sides with no letters: the box is 1 and the optimum is
        # the four endpoint selectors, which is final in the box
        sys0 = pk.flow_system(Nfa(1, (), frozenset()), {0}, {0})
        assert _first_box(sys0, sys0, [], 1) == 1
        solves = []
        real = pk.MipModel.solve

        def counting(model):
            solves.append(model)
            return real(model)

        monkeypatch.setattr(pk.MipModel, "solve", counting)
        res = pk.match_fixed(sys0, sys0, [], 1)
        assert res.status == pk.SAT
        assert len(solves) == 1

    def test_boxed_optimum_equals_cap_optimum(self, monkeypatch):
        # exact matches on the pools of satisfiable CNF encodings and a
        # threshold-1 match on a reduced automaton, each with first
        # solutions of disconnected support in both boxes, plus plain
        # matches on criterion 8's reduced automata at d = 1 and 8: the
        # answer match_fixed returns, its last solve's, costs the optimum
        # of the model built at cap
        cases = [
            (build_reduced_pool(gen_sat_instance(cnf)), None)
            for cnf in (
                Cnf3(6, ((-2, -6, 4),)),
                Cnf3(5, ((-4, -3, -2), (2, 3, 1), (-3, -1, -2))),
                Cnf3(5, ((-5, 3, -4), (1, -4, 3))),
            )
        ]
        cases.append((build_reduced(gen_random(141, 2, 2, 0.3)), 1))
        for seed in (10_000, 10_003, 10_011):
            red = build_reduced(gen_random(seed, 3, 2, 0.4))
            cases += [(red, 1), (red, 8)]
        costs = []
        real = pk._solve_connected

        def recording(model, reqs):
            sol = real(model, reqs)
            costs.append(None if sol is None else sum(sol))
            return sol

        for red, d in cases:
            sys1 = pk.flow_system(red.nfa, red.i1, red.f1)
            sys2 = pk.flow_system(red.nfa, red.i2, red.f2)
            letters = sorted(set(sys1.letters) | set(sys2.letters))
            with monkeypatch.context() as m:
                m.setattr(pk, "_solve_connected", recording)
                assert pk.match_fixed(sys1, sys2, letters, d).status == pk.SAT
            optimum = _boxed_objective(sys1, sys2, letters, d, 100_000)
            assert costs[-1] == optimum, (d, costs[-1], optimum)


def _disjoint_reductions():
    """The reduced automata of the disjoint gen_random(900 + s, 2, 2, 0.35),
    s < 200."""
    for seed in range(200):
        spec = gen_random(900 + seed, 2, 2, 0.35)
        if shortest_common_word(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2) is None:
            yield build_reduced(spec)


class TestMatchLimit:
    def test_pumped_flows_realize_on_random_reductions(self):
        # match_limit asks connectivity only of base + cycle on each side,
        # the support of every pumped flow base + t * cycle with t >= 1
        certificates = 0
        for red in _disjoint_reductions():
            sides = [(red.i1, red.f1), (red.i2, red.f2)]
            systems = pk.flow_systems(*((red.nfa, i, f) for i, f in sides))
            res = pk.match_limit(*systems, systems[0].letters)
            if res.status != pk.SAT:
                continue
            certificates += 1
            for which, system, (i, f) in zip((1, 2), systems, sides):
                for t in (1, 2, 4):
                    flow = res.assignment1.pumped(which, t)
                    w = pk.realize_word(system.nfa, system.i, system.f, flow)
                    assert accepts(red.nfa, i, f, w) and len(w) >= t
        assert certificates == 5

    def test_pumped_flows_reach_a_cycle_off_the_base_path(self):
        # side 1 reads x (aa | y a* y)* x, side 2 x y* a (aa)* x: the a-loop
        # at state 4 is the cheapest a-cycle, and the base path x x never
        # enters 4, so only y-edges in the pumped flows can reach it; a
        # requirement on each side's base alone lets a certificate use that
        # loop with no way in, and no pumped flow of it spells a word
        nfa1 = Nfa(5, ("a", "x", "y"), frozenset([
            (0, "x", 1), (1, "a", 2), (2, "a", 1), (1, "x", 3),
            (1, "y", 4), (4, "a", 4), (4, "y", 1),
        ]))
        nfa2 = Nfa(4, ("a", "x", "y"), frozenset([
            (0, "x", 1), (1, "a", 2), (2, "a", 1), (2, "x", 3), (1, "y", 1),
        ]))
        sides = [(nfa1, {0}, {3}), (nfa2, {0}, {3})]
        systems = pk.flow_systems(*sides)
        res = pk.match_limit(*systems, systems[0].letters)
        assert res.status == pk.SAT
        for which, system, (nfa, i, f) in zip((1, 2), systems, sides):
            for t in (1, 2, 4):
                flow = res.assignment1.pumped(which, t)
                w = pk.realize_word(system.nfa, system.i, system.f, flow)
                assert accepts(nfa, i, f, w) and len(w) >= t

    def test_parity_certificate(self):
        spec = gen_parity()
        sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
        sys2 = pk.flow_system(spec.nfa, spec.i2, spec.f2)
        res = pk.match_limit(sys1, sys2, ["a"])
        assert res.status == pk.SAT
        cert = res.assignment1
        # both circulations grow a
        assert "a" in {a for _p, a, _q in cert.cycle1}
        assert "a" in {a for _p, a, _q in cert.cycle2}
        for t in (1, 2, 4):
            w1 = pk.realize_word(sys1.nfa, sys1.i, sys1.f, cert.pumped(1, t))
            w2 = pk.realize_word(sys2.nfa, sys2.i, sys2.f, cert.pumped(2, t))
            assert accepts(spec.nfa, spec.i1, spec.f1, w1)
            assert accepts(spec.nfa, spec.i2, spec.f2, w2)
            assert len(w1) >= t and len(w2) >= t

    def test_no_certificate_when_counts_bounded(self):
        # L1 = {a}, L2 = {aa}: counts differ and nothing can be pumped
        nfa = Nfa(3, ("a",), frozenset([(0, "a", 1), (1, "a", 2)]))
        sys1 = pk.flow_system(nfa, {0}, {1})
        sys2 = pk.flow_system(nfa, {0}, {2})
        res = pk.match_limit(sys1, sys2, ["a"])
        assert res.status == pk.UNSAT


class TestRealizeWord:
    def test_zero_flow_needs_shared_endpoint(self):
        nfa = Nfa(2, ("a",), frozenset([(0, "a", 1)]))
        empty = pk.FlowAssignment({}, 0)
        assert pk.realize_word(nfa, {0}, {0}, empty) == ()
        with pytest.raises(ValueError):
            pk.realize_word(nfa, {0}, {1}, empty)

    def test_non_eulerian_flow_rejected(self):
        nfa = Nfa(3, ("a",), frozenset([(0, "a", 0), (1, "a", 2)]))
        bogus = pk.FlowAssignment({(1, "a", 2): 1, (0, "a", 0): 1}, 1)
        with pytest.raises(ValueError):
            pk.realize_word(nfa, {1}, {2}, bogus)


class TestLetterBounds:
    def test_dag_versus_cycle(self):
        nfa = Nfa(3, ("a", "b"), frozenset([(0, "a", 1), (1, "b", 1), (1, "a", 2)]))
        sys1 = pk.flow_system(nfa, {0}, {2})
        bounds = pk._letter_bounds(sys1)
        assert bounds["a"] == 2
        assert bounds["b"] is None

    def test_matches_reachability_definition(self):
        # a letter is unbounded iff one of its edges (p, a, q) closes a cycle,
        # i.e. p is reachable from q; otherwise each edge is crossed once
        for seed in range(40):
            spec = gen_random(seed, 1 + seed % 6, 1 + seed % 4, 0.3)
            system = pk.flow_system(spec.nfa, spec.i1, spec.f1)
            bounds = pk._letter_bounds(system)
            assert set(bounds) == set(system.letters)
            for a in system.letters:
                edges = [(p, q) for (p, b, q) in system.edges if b == a]
                on_cycle = any(p in reachable(system.nfa, {q}) for p, q in edges)
                assert bounds[a] == (None if on_cycle else len(edges)), (seed, a)

    def test_components_are_mutual_reachability_classes(self):
        # two states share a strongly connected component iff each reaches
        # the other
        for seed in range(40):
            spec = gen_random(seed, 1 + seed % 6, 1 + seed % 4, 0.3)
            system = pk.flow_system(spec.nfa, spec.i1, spec.f1)
            comp = system.components
            reach = [reachable(system.nfa, {q}) for q in range(system.nfa.n_states)]
            for p, q in itertools.product(range(system.nfa.n_states), repeat=2):
                assert (comp[p] == comp[q]) == (q in reach[p] and p in reach[q]), seed

    def test_count_terms_index_matches_edge_scan(self):
        for seed in range(40):
            spec = gen_random(seed, 1 + seed % 6, 1 + seed % 4, 0.3)
            system = pk.flow_system(spec.nfa, spec.i1, spec.f1)
            side = pk._add_flow(pk.MipModel(), system, 10)
            for a in system.letters + ("absent",):
                scan = {
                    v: 1
                    for (_p, b, _q), v in zip(system.edges, side.edge_vars)
                    if b == a
                }
                assert side.count_terms(a) == scan, (seed, a)

    def test_match_fixed_computes_bounds_once_per_side(self, monkeypatch):
        # model construction must not recompute the bounds once per letter
        letters = tuple("l%d" % j for j in range(40))
        trans = [(0, a, 1) for a in letters] + [(1, a, 1) for a in letters[::2]]
        nfa = Nfa(2, letters, frozenset(trans))
        sys1 = pk.flow_system(nfa, {0}, {1})
        sys2 = pk.flow_system(nfa, {0}, {0, 1})
        calls = []
        real = pk._letter_bounds

        def counting(system):
            calls.append(system)
            return real(system)

        monkeypatch.setattr(pk, "_letter_bounds", counting)
        res = pk.match_fixed(sys1, sys2, letters, 2)
        assert res.status == pk.SAT
        assert len(calls) <= 2


class TestConnectivityRows:
    def test_grouped_cut_admits_a_connected_flow(self):
        # 0 -a-> 1 -b-> 2 -c-> 1 with final state 1.  The base flow reads
        # a (bc)^cap and the circulation (bc)^cap, so edge b's group (base
        # plus cycle) sums to 2 cap while one unit enters {1, 2}: a
        # connected flow that every cut and seeded row must admit
        nfa = Nfa(3, ("a", "b", "c"), frozenset([(0, "a", 1), (1, "b", 2), (2, "c", 1)]))
        system = pk.flow_system(nfa, {0}, {1})
        cap = 10
        model = pk.MipModel()
        side = pk._add_flow(model, system, cap)
        cyc = pk._add_circulation(model, system, cap)
        req = side.conn_req(cap, cyc)
        flow = {"a": (1, 0), "b": (cap, cap), "c": (cap, cap)}
        sol = [0] * len(model.lb)
        for (_p, a, _q), v, w in zip(system.edges, side.edge_vars, cyc.edge_vars):
            sol[v], sol[w] = flow[a]
        sol[side.src_vars[0]] = 1
        sol[side.snk_vars[1]] = 1
        assert req.violation(sol) is None
        req.seed(model)
        req.add_cut(model, {1, 2})
        model._verify(sol)  # raises SolverStall on a violated row

    def test_seeded_rows_cut_off_a_stray_cycle(self):
        # 0 -a-> 3, and 0 -b-> the cycle 1 <-> 2 -a-> 3: the component
        # {1, 2} holds no initial state, so its seeded rows forbid flow on
        # the cycle while no b leaves state 0.  States 0 and 2 are
        # bisimilar, which flow_system would merge, so the system is built
        # directly on the trimmed automaton
        nfa = Nfa(4, ("a", "b"), frozenset([
            (0, "a", 3), (0, "b", 1), (1, "b", 2), (2, "b", 1), (2, "a", 3),
        ]))
        system = pk.FlowSystem(
            nfa, frozenset({0}), frozenset({3}), tuple(sorted(nfa.transitions))
        )
        model = pk.MipModel()
        side = pk._add_flow(model, system, 5)
        req = side.conn_req(5)
        req.seed(model)
        assert len(model.rows) == 2 + system.nfa.n_states + 2
        sol = [0] * len(model.lb)
        for (p, a, q), v in zip(system.edges, side.edge_vars):
            sol[v] = 1 if (p, a, q) in {(0, "a", 3), (1, "b", 2), (2, "b", 1)} else 0
        sol[side.src_vars[0]] = 1
        sol[side.snk_vars[3]] = 1
        assert req.violation(sol) == {1, 2}
        with pytest.raises(pk.SolverStall):
            model._verify(sol)


CRITERION_6_POOLS = pytest.mark.parametrize("cnf, thresholds", [
    # a satisfiable criterion-6 formula whose exact pool match takes cut
    # rounds (its matches at d = 1, 2 take 25 s)
    (Cnf3(4, ((1, 3, -1), (2, -1, 3), (2, -2, 3), (-4, 3, 4), (3, 4, 1), (1, -3, 1))),
     (None, "limit")),
    # one whose pool matches are quick at every threshold
    (Cnf3(4, ((-4, -2, -1), (2, -1, -3), (3, 1, -3))), (None, 1, 2, "limit")),
], ids=["cut-rounds", "every-threshold"])


class TestSeededRowsChangeNoAnswer:
    """The rows added before the first solve hold for every connected flow,
    so each solve's status and optimum are those of the lazy cuts alone."""

    @staticmethod
    def _answers(monkeypatch, seeded, run):
        solves = []
        real = pk.MipModel.solve
        connected = pk._solve_connected

        def counting(model):
            solves.append(model)
            return real(model)

        objectives = []

        def recording(model, reqs):
            sol = connected(model, reqs)
            objectives.append(None if sol is None else sum(sol))
            return sol

        with monkeypatch.context() as m:
            m.setattr(pk.MipModel, "solve", counting)
            m.setattr(pk, "_solve_connected", recording)
            if not seeded:
                m.setattr(pk._ConnReq, "seed", lambda self, model: None)
            res = run()
        return (res.status, objectives), len(solves)

    def _compare(self, monkeypatch, run):
        with_rows, solves_with = self._answers(monkeypatch, True, run)
        without, solves_without = self._answers(monkeypatch, False, run)
        assert with_rows == without
        return solves_with, solves_without

    def test_random_flow_systems(self, monkeypatch):
        # once bisimilar states are merged, none of these systems needs a
        # cut round, so the solves the rows save are counted on criterion
        # 6's pools below
        for seed in range(30):
            spec = gen_random(900 + seed, 2 + seed % 4, 1 + seed % 2, 0.35)
            sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
            sys2 = pk.flow_system(spec.nfa, spec.i2, spec.f2)
            letters = sorted(spec.nfa.alphabet)
            for d in (None, 1, 2):
                self._compare(monkeypatch, lambda: pk.match_fixed(sys1, sys2, letters, d))
            self._compare(monkeypatch, lambda: pk.match_limit(sys1, sys2, letters))

    def test_rows_save_solves_on_criterion_6_pools(self, monkeypatch):
        # the exact pool matches of three satisfiable criterion-6 formulas:
        # each takes one solve with the rows and 6-7 without them (over all
        # of criterion 6, 46 solves against 113); only the total is pinned,
        # since cut rounds move with hash order
        fewer = 0
        for cnf in (
            Cnf3(4, ((-2, -2, -1), (-4, 1, 1), (-2, 1, -3), (1, -1, 3), (4, 1, -3),
                     (-4, -4, 4))),
            Cnf3(4, ((2, -3, -1), (1, 4, -1), (4, 2, 2), (-4, 3, 3), (-4, 1, -3),
                     (-3, -4, -4), (-2, 4, -1))),
            Cnf3(4, ((1, 3, 4), (3, -1, -1), (-4, -4, 3), (-4, -3, 4), (3, 1, 1),
                     (2, -1, 4), (4, -3, -2), (-2, 4, -4))),
        ):
            pool = build_reduced_pool(gen_sat_instance(cnf))
            sys1 = pk.flow_system(pool.nfa, pool.i1, pool.f1)
            sys2 = pk.flow_system(pool.nfa, pool.i2, pool.f2)
            letters = sorted(set(sys1.letters) | set(sys2.letters))
            with_rows, without = self._compare(
                monkeypatch, partial(pk.match_fixed, sys1, sys2, letters, None)
            )
            fewer += without - with_rows
        assert fewer > 0

    @CRITERION_6_POOLS
    def test_criterion_6_pool(self, monkeypatch, cnf, thresholds):
        pool = build_reduced_pool(gen_sat_instance(cnf))
        sys1 = pk.flow_system(pool.nfa, pool.i1, pool.f1)
        sys2 = pk.flow_system(pool.nfa, pool.i2, pool.f2)
        letters = sorted(set(sys1.nfa.alphabet) | set(sys2.nfa.alphabet))
        for d in thresholds:
            if d == "limit":
                run = partial(pk.match_limit, sys1, sys2, letters)
            else:
                run = partial(pk.match_fixed, sys1, sys2, letters, d)
            self._compare(monkeypatch, run)


def _trimmed(nfa, i, f):
    """The flow system of L(nfa, i, f) trimmed but with no state merged."""
    nfa2, (i2,), (f2,) = trim(nfa, [set(i)], [set(f)])
    return pk.FlowSystem(nfa2, i2, f2, tuple(sorted(nfa2.transitions)))


def _bisimilar_tails():
    """Hand-built automata whose states share futures or pasts."""
    # two branches a.b and c.b into two final states: 3 ~ 4 and then
    # 1 ~ 2 forward, leaving 0 -a,c-> 1 -b-> 2
    forked = Nfa(5, ("a", "b", "c"), frozenset([
        (0, "a", 1), (0, "c", 2), (1, "b", 3), (2, "b", 4),
    ]))
    # a padding tail: every state of 2 -a-> 3 -a-> 4 -a-> 2 reads a^*
    # to the end, as does the loop on 1
    padded = Nfa(5, ("a", "b"), frozenset([
        (0, "b", 1), (0, "b", 2), (1, "a", 1), (2, "a", 3), (3, "a", 4), (4, "a", 2),
    ]))
    # two initial states with the same future
    twin = Nfa(4, ("a", "b"), frozenset([
        (0, "a", 2), (1, "a", 2), (2, "b", 3), (3, "a", 3),
    ]))
    # 1 and 2 read different letters to 3 but share their past, so only
    # the backward pass merges them
    split = Nfa(4, ("a", "b", "c"), frozenset([
        (0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "c", 3),
    ]))
    return [
        (forked, {0}, {3, 4}, 3),
        (padded, {0}, {1, 2, 3, 4}, 2),
        (twin, {0, 1}, {3}, 3),
        (split, {0}, {3}, 3),
    ]


class TestBisimulationMerge:
    def test_same_words_up_to_length_6(self):
        cases = [(nfa, i, f) for nfa, i, f, _n in _bisimilar_tails()]
        for seed in range(40):
            spec = gen_random(300 + seed, 2 + seed % 5, 1 + seed % 3, 0.3)
            cases += [(spec.nfa, spec.i1, spec.f1), (spec.nfa, spec.i2, spec.f2)]
        merged = 0
        for nfa, i, f in cases:
            system = pk.flow_system(nfa, i, f)
            merged += system.nfa.n_states < _trimmed(nfa, i, f).nfa.n_states
            assert _words(system.nfa, system.i, system.f, 6) == _words(nfa, i, f, 6)
        assert merged > len(_bisimilar_tails())

    def test_bisimilar_tails_merge(self):
        for nfa, i, f, states in _bisimilar_tails():
            assert pk.flow_system(nfa, i, f).nfa.n_states == states

    def test_nothing_to_merge_keeps_the_trimmed_system(self):
        # a^* b over 0 -a-> 0 -b-> 1 and the parity automaton are minimal;
        # among random systems, every one whose reduction merges nothing
        # equals its trimmed system, numbering included
        kept = [
            (Nfa(2, ("a", "b"), frozenset([(0, "a", 0), (0, "b", 1)])), {0}, {1}),
            (gen_parity().nfa, gen_parity().i1, gen_parity().f1),
        ]
        for seed in range(40):
            spec = gen_random(300 + seed, 2 + seed % 5, 1 + seed % 3, 0.3)
            for i, f in ((spec.i1, spec.f1), (spec.i2, spec.f2)):
                system = pk.flow_system(spec.nfa, i, f)
                if system.nfa.n_states == _trimmed(spec.nfa, i, f).nfa.n_states:
                    kept.append((spec.nfa, i, f))
        assert len(kept) > 10
        for nfa, i, f in kept:
            assert pk.flow_system(nfa, i, f) == _trimmed(nfa, i, f)

    def test_empty_partner_leaves_systems_trimmed(self):
        # states 1 and 2 of a b^* | a b^* are bisimilar; against an empty
        # language no match needs a model, so flow_systems merges nothing
        nfa = Nfa(3, ("a", "b"), frozenset([
            (0, "a", 1), (0, "a", 2), (1, "b", 1), (2, "b", 2),
        ]))
        live, dead = (nfa, {0}, {1, 2}), (nfa, {1}, {0})
        assert pk.flow_system(*live).nfa.n_states == 2
        assert pk.flow_systems(live, live) == [pk.flow_system(*live)] * 2
        assert pk.flow_systems(live, dead) == [_trimmed(*live), _trimmed(*dead)]
        res = pk.match_fixed(*pk.flow_systems(dead, live), ["a", "b"], 1)
        assert res.status == pk.UNSAT

    @staticmethod
    def _answer(monkeypatch, run):
        """(status, certainty, optimum of the last connected solve)."""
        objectives = []
        connected = pk._solve_connected

        def recording(model, reqs):
            sol = connected(model, reqs)
            objectives.append(None if sol is None else sum(sol))
            return sol

        with monkeypatch.context() as m:
            m.setattr(pk, "_solve_connected", recording)
            res = run()
        return res.status, res.certain, objectives[-1] if objectives else None

    def _compare(self, monkeypatch, nfa, sides, thresholds):
        reduced = [pk.flow_system(nfa, i, f) for i, f in sides]
        plain = [_trimmed(nfa, i, f) for i, f in sides]
        letters = sorted(set(reduced[0].letters) | set(reduced[1].letters))
        for d in thresholds:
            answers = []
            for sys1, sys2 in (reduced, plain):
                if d == "limit":
                    run = partial(pk.match_limit, sys1, sys2, letters)
                else:
                    run = partial(pk.match_fixed, sys1, sys2, letters, d)
                answers.append(self._answer(monkeypatch, run))
            assert answers[0] == answers[1], d

    def test_matches_keep_status_and_optimum_on_random_specs(self, monkeypatch):
        for seed in range(30):
            spec = gen_random(900 + seed, 2 + seed % 4, 1 + seed % 2, 0.35)
            sides = [(spec.i1, spec.f1), (spec.i2, spec.f2)]
            self._compare(monkeypatch, spec.nfa, sides, (None, 1, 2, "limit"))

    @CRITERION_6_POOLS
    def test_matches_keep_status_and_optimum_on_criterion_6_pools(
        self, monkeypatch, cnf, thresholds
    ):
        pool = build_reduced_pool(gen_sat_instance(cnf))
        sides = [(pool.i1, pool.f1), (pool.i2, pool.f2)]
        assert pk.flow_system(pool.nfa, *sides[1]).nfa.n_states < _trimmed(
            pool.nfa, *sides[1]
        ).nfa.n_states
        self._compare(monkeypatch, pool.nfa, sides, thresholds)


def _status(sys1, sys2, letters, d):
    if d == "limit":
        return pk.match_limit(sys1, sys2, letters).status
    return pk.match_fixed(sys1, sys2, letters, d).status


class TestSharedLetterFixpoint:
    """flow_systems cuts the sides down to the letters all of them read
    until nothing changes; a side it empties settles every match."""

    def test_cascade_empties_the_other_side(self, monkeypatch):
        # round 1 drops x from side 1, which cuts off its a-edge; round 2
        # then drops a from side 2, whose only word ab needs it
        nfa1 = Nfa(3, ("a", "b", "x"), frozenset([(0, "x", 1), (1, "a", 2), (0, "b", 2)]))
        nfa2 = Nfa(3, ("a", "b"), frozenset([(0, "a", 1), (1, "b", 2)]))
        sides = [(nfa1, {0}, {2}), (nfa2, {0}, {2})]
        trims = []
        real = pk._trimmed
        monkeypatch.setattr(pk, "_trimmed", lambda *side: trims.append(side) or real(*side))
        sys1, sys2 = pk.flow_systems(*sides)
        monkeypatch.undo()
        # one trim per side at the start and one per side in each round
        assert len(trims) == 2 * (1 + 2)
        assert sys1.edges == ((0, "b", 1),) and sys1.i and not sys2.i
        plain = [_trimmed(*side) for side in sides]
        for d in (None, 1, 2, "limit"):
            assert _status(sys1, sys2, ["a", "b", "x"], d) == pk.UNSAT
            assert _status(*plain, ["a", "b", "x"], d) == pk.UNSAT

    def test_empty_words_over_disjoint_letters(self):
        # a* against b*: cut down to no letter, each side still reads the
        # empty word, so each system is one initial and final state
        nfa = Nfa(2, ("a", "b"), frozenset([(0, "a", 0), (1, "b", 1)]))
        sides = [(nfa, {0}, {0}), (nfa, {1}, {1})]
        sys1, sys2 = pk.flow_systems(*sides)
        for system in (sys1, sys2):
            assert system.edges == () and system.i & system.f
        for d in (None, 1):
            res = pk.match_fixed(sys1, sys2, ["a", "b"], d)
            assert res.status == pk.SAT
            assert pk.realize_word(sys1.nfa, sys1.i, sys1.f, res.assignment1) == ()
            assert pk.realize_word(sys2.nfa, sys2.i, sys2.f, res.assignment2) == ()
        res = pk.match_limit(sys1, sys2, ["a", "b"])
        assert res.status == pk.SAT
        for which, system in ((1, sys1), (2, sys2)):
            flow = res.assignment1.pumped(which, 3)
            assert pk.realize_word(system.nfa, system.i, system.f, flow) == ()

    def test_settled_matches_build_no_model(self, monkeypatch):
        # a b* against c c*: no letter is shared, so every match is
        # answered exactly, without HiGHS
        nfa = Nfa(4, ("a", "b", "c"), frozenset([
            (0, "a", 1), (1, "b", 1), (2, "c", 3), (3, "c", 3),
        ]))
        sys1, sys2 = pk.flow_systems((nfa, {0}, {1}), (nfa, {2}, {3}))

        def refuse(model):
            raise AssertionError("a settled match reached the solver")

        monkeypatch.setattr(pk.MipModel, "solve", refuse)
        for d in (None, 1, 2):
            res = pk.match_fixed(sys1, sys2, ["a", "b", "c"], d)
            assert (res.status, res.certain) == (pk.UNSAT, True)
        res = pk.match_limit(sys1, sys2, ["a", "b", "c"])
        assert (res.status, res.certain) == (pk.UNSAT, True)

    @staticmethod
    def _compare(monkeypatch, nfa, sides, thresholds):
        """Whether flow_systems empties a side; either way each match has
        the status it has on the plain trimmed systems.

        When no side is emptied, both systems read the same letters, and
        match_fixed reaches the same certainty and optimum as on the plain
        systems.
        """
        systems = pk.flow_systems(*((nfa, i, f) for i, f in sides))
        plain = [_trimmed(nfa, i, f) for i, f in sides]
        letters = sorted(nfa.alphabet)
        emptied = not all(system.i for system in systems)
        if not emptied:
            assert systems[0].letters == systems[1].letters
        for d in thresholds:
            if emptied or d == "limit":
                assert _status(*systems, letters, d) == _status(*plain, letters, d), d
                continue
            answers = [
                TestBisimulationMerge._answer(
                    monkeypatch, partial(pk.match_fixed, *pair, letters, d)
                )
                for pair in (systems, plain)
            ]
            assert answers[0] == answers[1], d
        return emptied

    def test_statuses_on_random_specs_and_reductions(self, monkeypatch):
        # the sides of random specs, and those of the reduced automata of
        # disjoint ones, where the engine meets disjoint letters
        cases = []
        for seed in range(30):
            spec = gen_random(900 + seed, 2 + seed % 4, 1 + seed % 2, 0.35)
            cases.append((spec.nfa, [(spec.i1, spec.f1), (spec.i2, spec.f2)]))
        for red in _disjoint_reductions():
            cases.append((red.nfa, [(red.i1, red.f1), (red.i2, red.f2)]))
        emptied = [
            self._compare(monkeypatch, nfa, sides, (None, 1, 2, "limit"))
            for nfa, sides in cases
        ]
        assert sum(emptied) >= 10 and emptied.count(False) >= 30

    @CRITERION_6_POOLS
    def test_statuses_on_criterion_6_pools(self, monkeypatch, cnf, thresholds):
        pool = build_reduced_pool(gen_sat_instance(cnf))
        sides = [(pool.i1, pool.f1), (pool.i2, pool.f2)]
        assert not self._compare(monkeypatch, pool.nfa, sides, thresholds)


def _narrow_violation(req, sol):
    """The cut set before widening: the support states the source does
    not reach."""
    values = [sum(sol[v] for v in grp) for grp in req.var_groups]
    used = [e for e, val in zip(req.system.edges, values) if val > 0]
    src = next((q for q, v in req.src_vars.items() if sol[v] > 0), None)
    support = {src} - {None}
    for (p, _a, q) in used:
        support |= {p, q}
    seen, stack = set(), [src] if src is not None else []
    while stack:
        p = stack.pop()
        if p not in seen:
            seen.add(p)
            stack.extend(q for (r, _a, q) in used if r == p)
    return (support - seen) or None


def _spokes(k):
    """0 -a-> 1 -a-> 2, where 1 also leads by e to k symmetric c-cycles
    u_j <-> v_j, each back to 1 by e: one strongly connected component
    {1, u_j, v_j} without an initial state.  Against L2 = {aacc} at d = 1
    the only match with e counted 0 uses a c-cycle the source never
    reaches, so the match is UNSAT once every cycle is cut off."""
    trans = [(0, "a", 1), (1, "a", 2)]
    for j in range(k):
        u, v = 3 + 2 * j, 4 + 2 * j
        trans += [(1, "e", u), (u, "c", v), (v, "c", u), (v, "e", 1)]
    nfa = Nfa(3 + 2 * k, ("a", "c", "e"), frozenset(trans))
    # built directly: the merge would fold the symmetric cycles into one
    sys1 = pk.FlowSystem(nfa, frozenset({0}), frozenset({2}), tuple(sorted(trans)))
    line = Nfa(5, ("a", "c"), frozenset([
        (0, "a", 1), (1, "a", 2), (2, "c", 3), (3, "c", 4),
    ]))
    return sys1, pk.flow_system(line, {0}, {4})


class TestWidenedCuts:
    @staticmethod
    def _flows(system, cap):
        """Every conserved flow of system with edge values up to cap, as
        (edge values, source, sink)."""
        n = system.nfa.n_states
        for values in itertools.product(range(cap + 1), repeat=len(system.edges)):
            net = [0] * n
            for (p, _a, q), x in zip(system.edges, values):
                net[p] += x
                net[q] -= x
            for src in sorted(system.i):
                for snk in sorted(system.f):
                    want = [0] * n
                    want[src] += 1
                    want[snk] -= 1
                    if net == want:
                        yield values, src, snk

    def test_every_connected_flow_satisfies_every_widened_cut(self):
        # every conserved flow up to edge value 2 (1 on the spokes) of 30
        # random systems with 4 to 7 edges and of hand-built ones: each
        # disconnected flow gives a cut, which must admit every connected
        # flow of its system
        systems = [_trimmed(nfa, i, f) for nfa, i, f, _n in _bisimilar_tails()]
        systems.append(_spokes(2)[0])
        for seed in range(100):
            spec = gen_random(500 + seed, 3 + seed % 2, 1 + seed % 2, 0.3)
            for i, f in ((spec.i1, spec.f1), (spec.i2, spec.f2)):
                system = pk.flow_system(spec.nfa, i, f)
                if 4 <= len(system.edges) <= 7 and len(systems) < 35:
                    systems.append(system)
        cuts = wider = 0
        for system in systems:
            cap = 2 if len(system.edges) <= 7 else 1
            model = pk.MipModel()
            side = pk._add_flow(model, system, cap)
            req = side.conn_req(cap)
            connected = []
            for values, src, snk in self._flows(system, cap):
                sol = [0] * len(model.lb)
                for v, x in zip(side.edge_vars, values):
                    sol[v] = x
                sol[side.src_vars[src]] = sol[side.snk_vars[snk]] = 1
                cut = req.violation(sol)
                if cut is None:
                    connected.append(sol)
                    continue
                # the widened set holds the narrow one, and the flow that
                # produced it breaks its rows
                narrow = _narrow_violation(req, sol)
                assert narrow <= cut
                wider += narrow != cut
                alone = pk.MipModel()
                alone.lb, alone.ub = model.lb, model.ub
                req.add_cut(alone, cut)
                with pytest.raises(pk.SolverStall):
                    alone._verify(sol)
                req.add_cut(model, cut)
                cuts += 1
            assert connected
            for sol in connected:
                model._verify(sol)  # raises SolverStall on a violated row
        assert cuts > 500 and wider > 20

    def _solves(self, monkeypatch, k, narrow):
        sys1, sys2 = _spokes(k)
        solves = []
        real = pk.MipModel.solve

        def counting(model):
            solves.append(model)
            return real(model)

        with monkeypatch.context() as m:
            m.setattr(pk.MipModel, "solve", counting)
            if narrow:
                m.setattr(pk._ConnReq, "violation", _narrow_violation)
            res = pk.match_fixed(sys1, sys2, ["a", "c", "e"], 1)
        assert res.status == pk.UNSAT and res.certain
        return len(solves)

    @pytest.mark.parametrize("k", [3, 5])
    def test_one_wide_cut_covers_symmetric_cycles(self, monkeypatch, k):
        assert self._solves(monkeypatch, k, narrow=True) >= k
        assert self._solves(monkeypatch, k, narrow=False) <= 2


class TestNoLeakedWarnings:
    def test_solves_raise_no_warning(self, monkeypatch):
        # a SAT and an UNSAT match and a match with a cut round, with every
        # warning an error: scipy's warning about the HiGHS option passed
        # through must not reach the caller
        spec = gen_parity()
        sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
        sys2 = pk.flow_system(spec.nfa, spec.i2, spec.f2)
        spokes = _spokes(2)
        solves = []
        real = pk.MipModel.solve

        def counting(model):
            solves.append(model)
            return real(model)

        monkeypatch.setattr(pk.MipModel, "solve", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = list(warnings.filters)
            assert pk.match_fixed(sys1, sys2, ["a"], 1).status == pk.SAT
            assert pk.match_fixed(sys1, sys2, ["a"], None).status == pk.UNSAT
            assert pk.match_fixed(*spokes, ["a", "c", "e"], 1).status == pk.UNSAT
            assert warnings.filters == before
        assert len(solves) >= 4


class TestSolverOutput:
    def test_highs_prints_nothing_to_stdout(self, capfd):
        # on this model HiGHS prints a line from C++ to file descriptor 1;
        # MipModel.solve sends it to descriptor 2, so stdout stays clean
        # for --json output
        model, _s1, _s2, reqs = pk._match_model(
            _cycle("a" * 7), _cycle("a" * 11), ["a"], None, 12
        )
        print("before")
        sol = pk._solve_connected(model, reqs)
        print("after")
        assert sum(sol) == 158
        out, _err = capfd.readouterr()
        assert out == "before\nafter\n"
