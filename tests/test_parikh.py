"""Flow systems: feasibility, threshold matching, pump certificates,
and Eulerian word reconstruction."""

import random
from functools import partial

import pytest

from ltsep.automata import Nfa, accepts, reachable
from ltsep import parikh as pk
from ltsep.reduction import build_reduced, build_reduced_pool
from ltsep.testkit import Cnf3, gen_parity, gen_random, gen_sat_instance


def _letter_counts(w):
    counts = {}
    for a in w:
        counts[a] = counts.get(a, 0) + 1
    return counts


def _count_vectors(nfa, i, f, max_len):
    """Letter-count vectors of all accepted words up to max_len."""
    out = set()
    layer = [((), set(i))]
    for _ in range(max_len + 1):
        nxt = []
        for w, cur in layer:
            if cur & set(f):
                out.add(tuple(sorted(_letter_counts(w).items())))
            for a in nfa.alphabet:
                succ = nfa.step(cur, a)
                if succ:
                    nxt.append((w + (a,), succ))
        layer = nxt
    return out


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
        for seed in range(25):
            spec = gen_random(seed, 3, 2, 0.4)
            sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
            realized = _count_vectors(spec.nfa, spec.i1, spec.f1, 4)
            sigma = spec.nfa.alphabet
            rng = random.Random(seed)
            targets = set(realized)
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
            for vec in targets:
                if sum(c for _a, c in vec) > 4:
                    continue
                normal = tuple((a, c) for a, c in vec if c)
                res = pk.feasible(
                    sys1, dict(vec), count_zero_rest=True, cap=50
                )
                assert res.status in (pk.SAT, pk.UNSAT)
                assert (res.status == pk.SAT) == (normal in realized), (
                    seed,
                    vec,
                )
                if res.status == pk.SAT:
                    w = pk.realize_word(
                        sys1.nfa, sys1.i, sys1.f, res.assignment
                    )
                    assert accepts(spec.nfa, spec.i1, spec.f1, w)
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
            c1 = res.assignment1.letter_counts.get("a", 0)
            c2 = res.assignment2.letter_counts.get("a", 0)
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


def _bounds(sys1, sys2, d):
    return None if d is None else (pk._letter_bounds(sys1), pk._letter_bounds(sys2))


def _first_box(sys1, sys2, letters, d):
    return pk._fixed_bound(sys1, sys2, letters, d, _bounds(sys1, sys2, d))


def _boxed_objective(sys1, sys2, letters, d, box):
    """The optimum of match_fixed's model built at one box, None if UNSAT."""
    bounds = _bounds(sys1, sys2, d)
    model, _s1, _s2, reqs = pk._match_model(sys1, sys2, letters, d, bounds, box)
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

    def test_costly_exact_match_is_solved_again_at_cap(self, monkeypatch):
        # L1 = {a^7j}, L2 = {a^11j}: every exact match has 77t letters, so
        # the optimum costs more than the first box and is not accepted there
        sys1, sys2 = _cycle("a" * 7), _cycle("a" * 11)
        assert _first_box(sys1, sys2, ["a"], None) == 43
        boxes = self._record_boxes(monkeypatch)
        res = pk.match_fixed(sys1, sys2, ["a"], None)
        assert res.status == pk.SAT
        assert res.assignment1.letter_counts == {"a": 77}
        assert res.assignment2.letter_counts == {"a": 77}
        assert boxes == [43, 100_000]

    def test_exact_match_outside_the_box_is_found_at_cap(self, monkeypatch):
        # L1 = (a^6 b)^+, L2 = (b^11)^+ with an a-loop on its final state:
        # every exact match puts 66t > 43 a's on that one loop, so the first
        # box is infeasible, and at d=None that is not final
        sys1 = _cycle("aaaaaab")
        sys2 = _cycle("b" * 11, extra=[(11, "a", 11)])
        assert _first_box(sys1, sys2, ["a", "b"], None) == 43
        boxes = self._record_boxes(monkeypatch)
        res = pk.match_fixed(sys1, sys2, ["a", "b"], None)
        assert res.status == pk.SAT
        assert res.assignment1.letter_counts == {"a": 66, "b": 11}
        assert res.assignment2.letter_counts == {"a": 66, "b": 11}
        assert boxes == [43, 100_000]

    def test_stall_at_cap_keeps_only_a_boxed_match(self, monkeypatch):
        # a stall of the cap solve keeps the box's SAT answer (its flows are
        # a match, perhaps not the cheapest), but not the box's UNSAT, which
        # is not final for an exact match
        real = pk._solve_connected

        def stall_at_cap(model, reqs):
            if reqs[0].cap == 100_000:
                raise pk.SolverStall("stalled")
            return real(model, reqs)

        monkeypatch.setattr(pk, "_solve_connected", stall_at_cap)
        costly = pk.match_fixed(_cycle("a" * 7), _cycle("a" * 11), ["a"], None)
        assert costly.status == pk.SAT
        assert costly.assignment1.letter_counts == {"a": 77}
        sys2 = _cycle("b" * 11, extra=[(11, "a", 11)])
        outside = pk.match_fixed(_cycle("aaaaaab"), sys2, ["a", "b"], None)
        assert outside.status == pk.UNKNOWN

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
        # a's, more than twice the summed state count; the box counts the
        # marks of every letter and finds the match in one solve
        sys1 = _cycle("a" * 11 + "b")
        trans = [(q, "b", q + 1) for q in range(4)] + [(4, "a", 4)]
        sys2 = pk.flow_system(Nfa(5, ("a", "b"), frozenset(trans)), {0}, {4})
        assert _first_box(sys1, sys2, ["a", "b"], 5) == 13 * (1 + 5 + 5)
        boxes = self._record_boxes(monkeypatch)
        res = pk.match_fixed(sys1, sys2, ["a", "b"], 5)
        assert res.status == pk.SAT
        assert res.assignment1.letter_counts == {"a": 44, "b": 4}
        assert res.assignment2.letter_counts == {"a": 5, "b": 4}
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

    def test_boxed_optimum_equals_cap_optimum(self):
        # exact matches on the pools of satisfiable CNF encodings and a
        # threshold-1 match on a reduced automaton, each with first
        # solutions of disconnected support in both boxes, plus plain
        # matches on criterion 8's reduced automata at d = 1 and 8
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
        for red, d in cases:
            sys1 = pk.flow_system(red.nfa, red.i1, red.f1)
            sys2 = pk.flow_system(red.nfa, red.i2, red.f2)
            letters = sorted(set(sys1.letters) | set(sys2.letters))
            box = _first_box(sys1, sys2, letters, d)
            got = _boxed_objective(sys1, sys2, letters, d, box)
            assert got is not None and got <= box
            assert got == _boxed_objective(sys1, sys2, letters, d, 100_000)


class TestMatchLimit:
    def test_parity_certificate(self):
        spec = gen_parity()
        sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
        sys2 = pk.flow_system(spec.nfa, spec.i2, spec.f2)
        res = pk.match_limit(sys1, sys2, ["a"])
        assert res.status == pk.SAT
        cert = res.assignment1
        assert "a" in cert.unbounded_set
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
        empty = pk.FlowAssignment({}, 0, 0, {})
        assert pk.realize_word(nfa, {0}, {0}, empty) == ()
        with pytest.raises(ValueError):
            pk.realize_word(nfa, {0}, {1}, empty)

    def test_non_eulerian_flow_rejected(self):
        nfa = Nfa(3, ("a",), frozenset([(0, "a", 0), (1, "a", 2)]))
        bogus = pk.FlowAssignment({(1, "a", 2): 1, (0, "a", 0): 1}, 1, 2, {"a": 2})
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
        req = pk._ConnReq(
            system, [[v, w] for v, w in zip(side.edge_vars, cyc)], side.src_vars, cap
        )
        flow = {"a": (1, 0), "b": (cap, cap), "c": (cap, cap)}
        sol = [0] * len(model.lb)
        for (_p, a, _q), v, w in zip(system.edges, side.edge_vars, cyc):
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
        # the cycle while no b leaves state 0
        nfa = Nfa(4, ("a", "b"), frozenset([
            (0, "a", 3), (0, "b", 1), (1, "b", 2), (2, "b", 1), (2, "a", 3),
        ]))
        system = pk.flow_system(nfa, {0}, {3})
        model = pk.MipModel()
        side = pk._add_flow(model, system, 5)
        req = pk._ConnReq(system, [[v] for v in side.edge_vars], side.src_vars, 5)
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
        fewer = 0
        for seed in range(30):
            spec = gen_random(900 + seed, 2 + seed % 4, 1 + seed % 2, 0.35)
            sys1 = pk.flow_system(spec.nfa, spec.i1, spec.f1)
            sys2 = pk.flow_system(spec.nfa, spec.i2, spec.f2)
            letters = sorted(spec.nfa.alphabet)
            for d in (None, 1, 2):
                a, b = self._compare(
                    monkeypatch, lambda: pk.match_fixed(sys1, sys2, letters, d)
                )
                fewer += a < b
            a, b = self._compare(monkeypatch, lambda: pk.match_limit(sys1, sys2, letters))
            fewer += a < b
        # the rows do replace cut rounds on some of these systems
        assert fewer > 0

    @pytest.mark.parametrize("cnf, thresholds", [
        # a satisfiable criterion-6 formula whose exact pool match takes cut
        # rounds (its matches at d = 1, 2 take 25 s)
        (Cnf3(4, ((1, 3, -1), (2, -1, 3), (2, -2, 3), (-4, 3, 4), (3, 4, 1), (1, -3, 1))),
         (None, "limit")),
        # one whose pool matches are quick at every threshold
        (Cnf3(4, ((-4, -2, -1), (2, -1, -3), (3, 1, -3))), (None, 1, 2, "limit")),
    ], ids=["cut-rounds", "every-threshold"])
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
