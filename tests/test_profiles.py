"""Profiles, capped images, the sliding-window view, and annotation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsep.automata import Nfa, accepts
from ltsep.profiles import (
    AnnotationBudgetError,
    Profile,
    annotate,
    capped_image,
    equivalent,
    language_signatures,
    profile_at,
    profile_word,
    project_profile_word,
    signature_of,
    split_width,
    Windows,
)
from ltsep.testkit import gen_parity, gen_random

words = st.lists(st.sampled_from("ab"), max_size=10).map(tuple)


class TestProfileAt:
    def test_split_width(self):
        assert split_width(1) == (0, 1)
        assert split_width(6) == (3, 3)
        assert split_width(7) == (3, 4)
        with pytest.raises(ValueError):
            split_width(0)

    def test_windows(self):
        w = tuple("abab")
        assert profile_at(w, 0, 2) == Profile((), ("a",), 2)
        assert profile_at(w, 2, 2) == Profile(("b",), ("a",), 2)
        assert profile_at(w, 3, 4) == Profile(("b", "a"), ("b",), 4)
        with pytest.raises(ValueError):
            profile_at(w, 4, 2)
        with pytest.raises(ValueError):
            profile_at(w, -1, 2)

    def test_symbol_round_trips_word(self):
        w = tuple("abba")
        syms = profile_word(w, 3)
        assert len(syms) == len(w)
        assert tuple(p.right[0] for p in syms) == w


class TestCappedImage:
    def test_caps_at_threshold(self):
        img = capped_image(tuple("aaaaa"), 1, 2)
        assert list(img.as_dict().values()) == [2]
        with pytest.raises(ValueError):
            capped_image((), 1, 0)

    def test_empty_word(self):
        assert capped_image((), 2, 1).as_dict() == {}

    @settings(max_examples=150, deadline=None)
    @given(words, words, st.integers(1, 4), st.integers(1, 3))
    def test_equivalent_matches_manual_counting(self, w1, w2, k, d):
        def manual(w):
            kl, kr = split_width(k)
            counts = {}
            for x in range(len(w)):
                key = (w[max(0, x - kl):x], w[x:x + kr])
                counts[key] = min(d, counts.get(key, 0) + 1)
            return counts

        assert equivalent(w1, w2, k, d) == (manual(w1) == manual(w2))

    @settings(max_examples=100, deadline=None)
    @given(words, st.integers(1, 4), st.integers(1, 3))
    def test_incremental_window_equals_direct_signature(self, w, k, d):
        win = Windows(k, d)
        buf, counts = (), win.empty
        for a in w:
            buf, counts = win.step(buf, counts, a)
        kl, kr = split_width(k)
        length = min(len(w), kl + kr)
        flushed = win.flush(buf, counts, length)
        assert win.signature(flushed) == signature_of(w, k, d)
        # the interned counts and the signature encode each other, and the
        # levels are nested: a profile counted c times is in levels 0..c-1
        assert win.counts_of(signature_of(w, k, d)) == flushed
        assert all(hi & ~lo == 0 for lo, hi in zip(flushed, flushed[1:]))


class TestAnnotate:
    def _ann_words(self, ann, max_len):
        out = set()
        layer = [((), set(ann.i))]
        for _ in range(max_len + 1):
            nxt = []
            for w, cur in layer:
                if cur & set(ann.f):
                    out.add(w)
                for sym in ann.nfa.alphabet:
                    succ = ann.nfa.step(cur, sym)
                    if succ:
                        nxt.append((w + (sym,), succ))
            layer = nxt
        return out

    def test_annotated_language_is_profile_language(self):
        for seed in (0, 3, 5, 8):
            spec = gen_random(seed, 3, 2, 0.4)
            for k in (1, 2):
                ann = annotate(spec.nfa, spec.i1, spec.f1, k)
                got = self._ann_words(ann, 4)
                want = set()
                layer = [((), set(spec.i1))]
                for _ in range(5):
                    nxt = []
                    for w, cur in layer:
                        if cur & set(spec.f1):
                            want.add(
                                tuple(p.symbol() for p in profile_word(w, k))
                            )
                        for a in spec.nfa.alphabet:
                            succ = spec.nfa.step(cur, a)
                            if succ:
                                nxt.append((w + (a,), succ))
                    layer = nxt
                assert got == want
                # projection inverts profiling on every accepted word
                for syms in got:
                    w = project_profile_word(ann.profiles, syms)
                    assert accepts(spec.nfa, spec.i1, spec.f1, w)

    def test_budget(self):
        spec = gen_random(2, 4, 2, 0.5)
        with pytest.raises(AnnotationBudgetError):
            annotate(spec.nfa, spec.i1, spec.f1, 4, state_budget=3)


class TestLanguageSignatures:
    def test_parity_signatures(self):
        spec = gen_parity()
        sig_even = language_signatures(spec.nfa, spec.i1, spec.f1, 1, 2)
        sig_odd = language_signatures(spec.nfa, spec.i2, spec.f2, 1, 2)
        # even lengths: {}, {a:2}; odd lengths: {a:1}, {a:2}
        assert signature_of((), 1, 2) in sig_even
        assert signature_of(("a", "a"), 1, 2) in sig_even
        assert signature_of(("a",), 1, 2) in sig_odd
        assert sig_even == {signature_of(("a",) * n, 1, 2) for n in (0, 2)}
        assert sig_odd == {signature_of(("a",) * n, 1, 2) for n in (1, 3)}

    def test_matches_brute_enumeration(self):
        rng = random.Random(9)
        for seed in range(8):
            spec = gen_random(seed, 3, 2, 0.4)
            k = rng.randint(1, 2)
            d = rng.randint(1, 2)
            sigs = language_signatures(spec.nfa, spec.i1, spec.f1, k, d)
            # brute signatures of words up to a length where new ones are rare
            brute = set()
            layer = [((), set(spec.i1))]
            for _ in range(9):
                nxt = []
                for w, cur in layer:
                    if cur & set(spec.f1):
                        brute.add(signature_of(w, k, d))
                    for a in spec.nfa.alphabet:
                        succ = spec.nfa.step(cur, a)
                        if succ:
                            nxt.append((w + (a,), succ))
                layer = nxt
            assert brute <= sigs

    @staticmethod
    def _accepted(nfa, i, f, max_len):
        """Every word of L(nfa, i, f) up to max_len letters."""
        out = []
        layer = [((), set(i))]
        for _ in range(max_len + 1):
            nxt = []
            for w, cur in layer:
                if cur & set(f):
                    out.append(w)
                for a in nfa.alphabet:
                    succ = nfa.step(cur, a)
                    if succ:
                        nxt.append((w + (a,), succ))
            layer = nxt
        return out

    @staticmethod
    def _random_dag(rng):
        """A random automaton whose edges only go up in state number, so
        that its language is finite, with words of at most n - 1 letters."""
        n = rng.randint(1, 6)
        sigma = ("a", "b", "c")[:rng.randint(1, 3)]
        trans = frozenset(
            (p, a, q)
            for p in range(n) for q in range(p + 1, n) for a in sigma
            if rng.random() < 0.4
        )
        f = frozenset(q for q in range(n) if rng.random() < 0.5) or {n - 1}
        return Nfa(n, sigma, trans), frozenset([0]), frozenset(f)

    def test_finite_languages_match_every_word(self):
        # a finite language's signature set is exactly the set of its words'
        # signatures, computed without the window walk
        rng = random.Random(13)
        for _ in range(60):
            nfa, i, f = self._random_dag(rng)
            words = self._accepted(nfa, i, f, nfa.n_states)
            for k in (1, 2, 3):
                for d in (1, 2, 3):
                    want = {signature_of(w, k, d) for w in words}
                    assert language_signatures(nfa, i, f, k, d) == want, (nfa, k, d)

    def test_cyclic_languages_hold_every_word(self):
        # two-letter specs whose signature sets stay small up to (3, 3)
        for seed, states in ((40, 2), (41, 3), (42, 4), (46, 2), (47, 3)):
            spec = gen_random(seed, states, 2, 0.3)
            words = self._accepted(spec.nfa, spec.i1, spec.f1, 7)
            for k in (1, 2, 3):
                for d in (1, 2, 3):
                    sigs = language_signatures(spec.nfa, spec.i1, spec.f1, k, d)
                    for w in words:
                        assert signature_of(w, k, d) in sigs, (seed, w, k, d)

    def test_budget(self):
        spec = gen_random(3, 4, 2, 0.5)
        with pytest.raises(AnnotationBudgetError):
            language_signatures(
                spec.nfa, spec.i1, spec.f1, 2, 2, state_budget=2
            )
