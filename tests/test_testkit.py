"""Instance generators, the CNF toolbox, and the independent oracles."""

import random

import pytest

from ltsep.automata import accepts, product, shortest_word
from ltsep.testkit import (
    PAD,
    Cnf3,
    exact_fixed_oracle,
    gen_parity,
    gen_random,
    gen_sat_instance,
    gen_threshold_family,
    parse_cnf,
    sample_words,
    sat_brute,
)


class TestCnf:
    def test_validation(self):
        with pytest.raises(ValueError):
            Cnf3(1, ((1, 2, 1),))  # variable 2 out of range
        with pytest.raises(ValueError):
            Cnf3(2, ((1, 2),))  # not three literals
        with pytest.raises(ValueError):
            Cnf3(2, ((1, 0, 2),))  # zero literal
        with pytest.raises(ValueError):
            Cnf3(-1, ())

    def test_parse_cnf(self):
        text = "c comment\np cnf 4 2\n1 -2 3 0\n-1 2 -3\n"
        cnf = parse_cnf(text)
        assert cnf.num_vars == 4
        assert cnf.clauses == ((1, -2, 3), (-1, 2, -3))
        with pytest.raises(ValueError):
            parse_cnf("p dimacs 1 1\n")
        with pytest.raises(ValueError):
            parse_cnf("1 2 0\n")

    def test_sat_brute(self):
        assert sat_brute(Cnf3(1, ((1, 1, 1),)))
        assert not sat_brute(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
        assert sat_brute(Cnf3(3, ((1, 2, 3), (-1, -2, -3))))
        with pytest.raises(ValueError):
            sat_brute(Cnf3(21, ()))


class TestSatInstance:
    def test_output_is_deterministic(self):
        spec = gen_sat_instance(Cnf3(2, ((1, 2, -1), (-2, -2, -2))))
        seen = {}
        for (p, a, q) in spec.nfa.transitions:
            assert seen.setdefault((p, a), q) == q, "nondeterministic"

    def test_assignment_words_accepted(self):
        cnf = Cnf3(2, ((1, 2, 2), (-1, 2, 2)))
        spec = gen_sat_instance(cnf)
        # the word choosing x1 and x2 belongs to the assignment language
        w = (PAD, "x1", PAD, "x2", PAD)
        assert accepts(spec.nfa, spec.i1, spec.f1, w)
        # and satisfies both clauses, so the clause side accepts it too
        assert accepts(spec.nfa, spec.i2, spec.f2, w)

    @pytest.mark.parametrize(
        "cnf",
        [
            Cnf3(1, ((1, 1, 1),)),
            Cnf3(1, ((1, 1, 1), (-1, -1, -1))),
            Cnf3(3, ((1, -2, 3), (-1, 2, -3), (2, 2, 2))),
        ],
    )
    def test_intersection_nonempty_iff_satisfiable(self, cnf):
        spec = gen_sat_instance(cnf)
        prod, ix = product(spec.nfa, spec.nfa)
        i = {ix[(p, q)] for p in spec.i1 for q in spec.i2}
        f = {ix[(p, q)] for p in spec.f1 for q in spec.f2}
        assert (shortest_word(prod, i, f) is not None) == sat_brute(cnf)


class TestThresholdFamily:
    def test_m1_languages(self):
        spec = gen_threshold_family(1)
        a1, a2 = "a1", "a2"
        assert accepts(spec.nfa, spec.i1, spec.f1, (a1,))
        assert accepts(spec.nfa, spec.i1, spec.f1, (a1, a2, a2, a2))
        assert not accepts(spec.nfa, spec.i1, spec.f1, (a1, a2))
        assert accepts(spec.nfa, spec.i2, spec.f2, ())
        assert accepts(spec.nfa, spec.i2, spec.f2, (a1, a2, a2))
        assert not accepts(spec.nfa, spec.i2, spec.f2, (a1,))

    def test_m2_block_order(self):
        spec = gen_threshold_family(2)
        w1 = ("a1", "a2", "a3", "a3", "a4", "a4", "a4")
        assert accepts(spec.nfa, spec.i1, spec.f1, w1)
        # blocks cannot be revisited once a later block has started
        assert not accepts(
            spec.nfa, spec.i1, spec.f1, ("a1", "a4", "a4", "a4", "a2", "a3", "a3")
        )
        w2 = ("a1", "a2", "a2", "a3", "a4", "a4")
        assert accepts(spec.nfa, spec.i2, spec.f2, w2)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            gen_threshold_family(0)


class TestParityAndRandom:
    def test_parity_languages(self):
        spec = gen_parity()
        for n in range(6):
            w = ("a",) * n
            assert accepts(spec.nfa, spec.i1, spec.f1, w) == (n % 2 == 0)
            assert accepts(spec.nfa, spec.i2, spec.f2, w) == (n % 2 == 1)

    def test_random_reproducible_and_trim(self):
        s1 = gen_random(42, 5, 2, 0.3)
        s2 = gen_random(42, 5, 2, 0.3)
        assert s1 == s2
        assert gen_random(43, 5, 2, 0.3) != s1
        with pytest.raises(ValueError):
            gen_random(0, 0, 2, 0.3)
        with pytest.raises(ValueError):
            gen_random(0, 2, 2, 0.0)


class TestOracles:
    def test_exact_fixed_oracle_parity(self):
        spec = gen_parity()
        # same capped images exist at every small parameter choice
        assert exact_fixed_oracle(spec, 1, 1) == "inseparable"
        assert exact_fixed_oracle(spec, 2, 2) == "inseparable"

    def test_exact_fixed_oracle_disjoint_images(self):
        spec = gen_threshold_family(1)
        assert exact_fixed_oracle(spec, 1, 2) == "inseparable"
        assert exact_fixed_oracle(spec, 1, 3) == "separable"

    def test_sample_words(self):
        spec = gen_random(17, 4, 2, 0.4)
        rng = random.Random(0)
        words = sample_words(spec.nfa, spec.i1, spec.f1, 20, rng)
        assert len(words) == len(set(words))
        for w in words:
            assert accepts(spec.nfa, spec.i1, spec.f1, w)
