"""NFA core: parsing, serialization, products, reachability, trimming."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsep.automata import (
    LangSpec,
    Nfa,
    SpecFormatError,
    accepts,
    coreachable,
    dot_export,
    is_empty,
    parse_spec,
    product,
    reachable,
    serialize_spec,
    shortest_common_word,
    shortest_word,
    trim,
)
from ltsep.testkit import Cnf3, gen_random, gen_sat_instance

PARITY_TEXT = """\
# even-length vs odd-length words over a single letter
alphabet: a
states: 2
trans: 0 a 1
trans: 1 a 0
I1: 0
F1: 0
I2: 0
F2: 1
"""


def _random_spec(rng, states=4, asz=2, density=0.3):
    sigma = tuple("ab"[:asz])
    trans = frozenset(
        (p, a, q)
        for p in range(states)
        for a in sigma
        for q in range(states)
        if rng.random() < density
    )
    nfa = Nfa(states, sigma, trans)

    def subset():
        s = frozenset(q for q in range(states) if rng.random() < 0.5)
        return s or frozenset([rng.randrange(states)])

    return LangSpec(nfa, subset(), subset(), subset(), subset())


def _brute_words(nfa, i, f, max_len):
    """All accepted words up to max_len, by exhaustive extension."""
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


class TestNfa:
    def test_validation(self):
        with pytest.raises(ValueError):
            Nfa(1, ("a",), frozenset([(0, "a", 1)]))
        with pytest.raises(ValueError):
            Nfa(1, ("a",), frozenset([(0, "b", 0)]))
        with pytest.raises(ValueError):
            Nfa(2, ("a", "a"), frozenset())
        with pytest.raises(ValueError):
            Nfa(-1, (), frozenset())

    def test_step_and_accepts(self):
        spec = parse_spec(PARITY_TEXT)
        nfa = spec.nfa
        assert nfa.step({0}, "a") == {1}
        assert nfa.step({0, 1}, "a") == {0, 1}
        assert accepts(nfa, spec.i1, spec.f1, ())
        assert accepts(nfa, spec.i1, spec.f1, ("a", "a"))
        assert not accepts(nfa, spec.i1, spec.f1, ("a",))
        assert accepts(nfa, spec.i2, spec.f2, ("a",))
        with pytest.raises(ValueError):
            accepts(nfa, spec.i1, spec.f1, ("b",))

    def test_langspec_rejects_foreign_states(self):
        nfa = Nfa(1, ("a",), frozenset())
        with pytest.raises(ValueError):
            LangSpec(nfa, frozenset([1]), frozenset(), frozenset(), frozenset())


class TestParseSerialize:
    def test_parity_document(self):
        spec = parse_spec(PARITY_TEXT)
        assert spec.nfa.n_states == 2
        assert spec.nfa.alphabet == ("a",)
        assert spec.i1 == frozenset([0]) and spec.f2 == frozenset([1])

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(20):
            spec = _random_spec(rng)
            assert parse_spec(serialize_spec(spec)) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "",  # missing everything
            "alphabet: a\nI1: 0\n",  # missing states
            "alphabet: a\nstates: 1\ntrans: 0 a 5\nI1: 0\nF1: 0\nI2: 0\nF2: 0\n",
            "alphabet: a\nstates: 1\ntrans: 0 b 0\nI1: 0\nF1: 0\nI2: 0\nF2: 0\n",
            "alphabet: a a\nstates: 1\nI1: 0\nF1: 0\nI2: 0\nF2: 0\n",
            "alphabet: a\nstates: 1\nI1: 0\nF1: 0\nI2: 0\nF2: 9\n",
            "alphabet: a\nstates: 1\nbogus: 1\nI1: 0\nF1: 0\nI2: 0\nF2: 0\n",
            "trans: 0 a 0\n",  # trans before declarations
            "alphabet: a\nstates: 1\njust some text\n",
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(SpecFormatError):
            parse_spec(text)

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_spec("# lead\n\n" + PARITY_TEXT + "\n# trail\n")
        assert spec == parse_spec(PARITY_TEXT)


class TestProduct:
    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            product(Nfa(1, ("a",), frozenset()), Nfa(1, ("b",), frozenset()))

    def test_language_is_intersection(self):
        rng = random.Random(2)
        for _ in range(15):
            s = _random_spec(rng, states=3)
            prod, ix = product(s.nfa, s.nfa)
            pi = {ix[(p, q)] for p in s.i1 for q in s.i2}
            pf = {ix[(p, q)] for p in s.f1 for q in s.f2}
            for w in _brute_words(s.nfa, s.i1, s.f1, 4) | _brute_words(
                s.nfa, s.i2, s.f2, 4
            ):
                both = accepts(s.nfa, s.i1, s.f1, w) and accepts(
                    s.nfa, s.i2, s.f2, w
                )
                assert accepts(prod, pi, pf, w) == both


def _product_common_word(spec):
    """The shortest word of L1 ∩ L2 searched on the full product."""
    prod, ix = product(spec.nfa, spec.nfa)
    i = {ix[(p, q)] for p in spec.i1 for q in spec.i2}
    f = {ix[(p, q)] for p in spec.f1 for q in spec.f2}
    return shortest_word(prod, i, f)


def _common_word(spec):
    return shortest_common_word(spec.nfa, spec.i1, spec.f1, spec.i2, spec.f2)


class TestCommonWord:
    def test_random_specs_match_product_search(self):
        rng = random.Random(10)
        found = 0
        for seed in range(300):
            spec = gen_random(
                seed, rng.randint(1, 7), rng.randint(1, 3), rng.choice((0.2, 0.3, 0.5))
            )
            w = _common_word(spec)
            assert w == _product_common_word(spec), seed
            found += w is not None
        assert 0 < found < 300

    def test_sat_encodings_match_product_search(self):
        full = tuple(
            (s1, 2 * s2, 3 * s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
        )
        for cnf in (
            Cnf3(3, full),
            Cnf3(1, ((1, 1, 1), (-1, -1, -1))),
            Cnf3(5, ((1, 1, 1), (-1, -1, -1), (2, -3, 4), (-2, 5, 5))),
            Cnf3(4, ((1, 2, 3), (-1, -2, 4), (2, 3, -4))),
            Cnf3(2, ((1, 2, 2),)),
        ):
            spec = gen_sat_instance(cnf)
            assert _common_word(spec) == _product_common_word(spec), cnf

    @pytest.mark.parametrize(
        "args, word",
        [
            ((188, 7, 3, 0.2), ("b",)),
            ((1130, 5, 2, 0.5), ("b",)),
            ((1711, 7, 2, 0.3), ("b",)),
            ((1947, 6, 3, 0.5), ("a",)),
            ((2447, 6, 3, 0.3), ("b",)),
            ((2506, 7, 2, 0.3), ("b",)),
        ],
    )
    def test_start_set_order_decides_the_word(self, args, word):
        # several one-letter words are common here; which one comes first
        # depends on how the start pairs are iterated
        spec = gen_random(*args)
        assert _common_word(spec) == word
        assert _product_common_word(spec) == word


class TestReachability:
    def test_reach_and_empty(self):
        nfa = Nfa(3, ("a",), frozenset([(0, "a", 1)]))
        assert reachable(nfa, {0}) == {0, 1}
        assert coreachable(nfa, {1}) == {0, 1}
        assert is_empty(nfa, {0}, {2})
        assert not is_empty(nfa, {0}, {1})

    def test_shortest_word(self):
        rng = random.Random(3)
        for _ in range(20):
            s = _random_spec(rng, states=3)
            w = shortest_word(s.nfa, s.i1, s.f1)
            brute = _brute_words(s.nfa, s.i1, s.f1, 6)
            if w is None:
                assert is_empty(s.nfa, s.i1, s.f1)
                assert not brute
            else:
                assert accepts(s.nfa, s.i1, s.f1, w)
                if brute:
                    assert len(w) == min(len(u) for u in brute)

    def test_trim_preserves_languages(self):
        rng = random.Random(4)
        for _ in range(15):
            s = _random_spec(rng, states=4)
            words = _brute_words(s.nfa, s.i1, s.f1, 4)
            nfa2, (i1, i2), (f1, f2) = trim(
                s.nfa, [s.i1, s.i2], [s.f1, s.f2]
            )
            assert _brute_words(nfa2, i1, f1, 4) == words
            # every surviving state is both reachable and co-reachable
            useful = reachable(nfa2, set(i1) | set(i2)) & coreachable(
                nfa2, set(f1) | set(f2)
            )
            assert useful == set(range(nfa2.n_states))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_serialize_parse_identity(data):
    n = data.draw(st.integers(1, 4))
    sigma = tuple(data.draw(st.sets(st.sampled_from("abc"), min_size=1)))
    trans = frozenset(
        data.draw(
            st.sets(
                st.tuples(
                    st.integers(0, n - 1),
                    st.sampled_from(sigma),
                    st.integers(0, n - 1),
                ),
                max_size=8,
            )
        )
    )
    states = st.frozensets(st.integers(0, n - 1))
    spec = LangSpec(
        Nfa(n, sigma, trans),
        data.draw(states),
        data.draw(states),
        data.draw(states),
        data.draw(states),
    )
    assert parse_spec(serialize_spec(spec)) == spec


def test_dot_export_mentions_all_states():
    spec = parse_spec(PARITY_TEXT)
    dot = dot_export(spec.nfa, [spec.i1, spec.i2], [spec.f1, spec.f2])
    assert dot.startswith("digraph")
    assert "n0" in dot and "n1" in dot and "doublecircle" in dot
