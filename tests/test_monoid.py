"""Transition monoid and the derived width/threshold bounds."""

import itertools
import random

import pytest

from ltsep.automata import Nfa, accepts
from ltsep.monoid import (
    MonoidBudgetError,
    letter_matrix,
    mat_mul,
    num_profiles,
    profile_width_bound,
    threshold_bound,
    transition_monoid,
    transition_semigroup,
    word_matrix,
)
from ltsep.testkit import gen_parity, gen_random


def _reaches(matrix, i, f):
    return any(matrix[p] & (1 << q) for p in i for q in f)


class TestMatrices:
    def test_letter_matrix(self):
        nfa = Nfa(2, ("a",), frozenset([(0, "a", 1), (1, "a", 0)]))
        assert letter_matrix(nfa, "a") == (2, 1)

    def test_mat_mul_is_relation_composition(self):
        rng = random.Random(5)
        n = 4
        for _ in range(30):
            m1 = tuple(rng.randrange(1 << n) for _ in range(n))
            m2 = tuple(rng.randrange(1 << n) for _ in range(n))
            prod = mat_mul(m1, m2)
            for i in range(n):
                row = 0
                for j in range(n):
                    if m1[i] & (1 << j):
                        row |= m2[j]
                assert prod[i] == row

    def test_word_matrix_matches_accepts(self):
        rng = random.Random(6)
        for seed in range(15):
            spec = gen_random(seed, 4, 2, 0.35)
            nfa = spec.nfa
            for _ in range(15):
                w = tuple(
                    rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 6))
                ) if nfa.alphabet else ()
                m = word_matrix(nfa, w)
                assert _reaches(m, spec.i1, spec.f1) == accepts(
                    nfa, spec.i1, spec.f1, w
                )


def _small_specs():
    rng = random.Random(31)
    return [
        gen_random(seed, rng.randint(1, 3), rng.randint(1, 2), rng.uniform(0.2, 0.5))
        for seed in range(30)
    ]


def _shortlex(nfa, w):
    return (len(w), [nfa.alphabet.index(a) for a in w])


class TestMonoid:
    def test_parity_monoid(self):
        nfa = gen_parity().nfa
        m = transition_monoid(nfa)
        # identity plus the swap; the swap squares back to the identity
        assert m.size == 2
        assert m.words == [(), ("a",)]
        assert word_matrix(nfa, ("a", "a")) == m.elements[0]

    @pytest.mark.parametrize(
        "closure", [transition_monoid, transition_semigroup], ids=["monoid", "semigroup"]
    )
    def test_recorded_words(self, closure):
        for spec in _small_specs():
            nfa = spec.nfa
            m = closure(nfa)
            assert len(m.words) == m.size == len(m.index)
            for i, (e, w) in enumerate(zip(m.elements, m.words)):
                assert m.index[e] == i
                assert word_matrix(nfa, w) == e
            # discovery order is shortlex order of the recorded words
            keys = [_shortlex(nfa, w) for w in m.words]
            assert all(x < y for x, y in zip(keys, keys[1:]))
            # closed under right multiplication by every letter
            for e in m.elements:
                for a in nfa.alphabet:
                    assert mat_mul(e, letter_matrix(nfa, a)) in m.index
            # no shortlex-smaller word reaches an element
            least = {}
            start = 0 if closure is transition_monoid else 1
            for n in range(start, 7):
                for w in itertools.product(nfa.alphabet, repeat=n):
                    least.setdefault(word_matrix(nfa, w), w)
            # every element is reached within length 6 on these specs
            assert len(least) == m.size
            for e, w in least.items():
                assert m.words[m.index[e]] == w
            if closure is transition_monoid:
                assert m.words[0] == ()
            else:
                assert all(m.words)

    def test_every_word_matrix_in_monoid(self):
        spec = gen_random(13, 3, 2, 0.4)
        m = transition_monoid(spec.nfa)
        for w in itertools.product(spec.nfa.alphabet, repeat=4):
            assert word_matrix(spec.nfa, w) in m.index

    def test_budget(self):
        spec = gen_random(21, 5, 2, 0.5)
        with pytest.raises(MonoidBudgetError):
            transition_monoid(spec.nfa, budget=2)
        with pytest.raises(MonoidBudgetError):
            transition_semigroup(spec.nfa, budget=2)


class TestBounds:
    def test_width_bound(self):
        assert profile_width_bound(transition_monoid(gen_parity().nfa)) == 12

    def test_num_profiles_by_enumeration(self):
        for k in (1, 2, 3, 4):
            for asz in (1, 2, 3):
                sigma = "abc"[:asz]
                kl = k // 2
                kr = k - kl
                windows = set()
                for i in range(kl + 1):
                    for j in range(kr + 1):
                        for left in itertools.product(sigma, repeat=i):
                            for right in itertools.product(sigma, repeat=j):
                                windows.add((left, right))
                assert num_profiles(k, asz) == len(windows)

    def test_threshold_bound_values(self):
        assert threshold_bound(1, 1, 2) == 16
        assert threshold_bound(2, 1, 2) == 4096
        assert threshold_bound(12, 1, 3) == 147 ** 49
        assert threshold_bound(12, 1, 2) == 98 ** 49
        # the empty word is the one profile over no letter
        assert threshold_bound(1, 0, 1) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            num_profiles(0, 2)
        with pytest.raises(ValueError):
            threshold_bound(0, 1, 1)
        with pytest.raises(ValueError):
            threshold_bound(1, -1, 1)
        with pytest.raises(ValueError):
            threshold_bound(1, 1, 0)
