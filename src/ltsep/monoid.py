"""Transition monoid and semigroup (Boolean matrices) and the parameter bounds.

One breadth-first closure records, for each element, the first word reaching
it, letters taken in alphabet order: its shortlex-least word.  The monoid is
the closure seeded with the identity and the letters, the semigroup the one
seeded with the letters only.
"""

from dataclasses import dataclass


class MonoidBudgetError(RuntimeError):
    """The monoid closure exceeded the configured element budget."""


def letter_matrix(nfa, sym):
    """Adjacency matrix of a letter, as a tuple of row bitmasks."""
    rows = [0] * nfa.n_states
    for (p, a, q) in nfa.transitions:
        if a == sym:
            rows[p] |= 1 << q
    return tuple(rows)


def identity_matrix(n):
    return tuple(1 << i for i in range(n))


def mat_mul(m1, m2):
    """Boolean product of two square matrices in row-bitmask form."""
    n = len(m1)
    out = []
    for i in range(n):
        row = 0
        bits = m1[i]
        j = 0
        while bits:
            if bits & 1:
                row |= m2[j]
            bits >>= 1
            j += 1
        out.append(row)
    return tuple(out)


def word_matrix(nfa, w):
    """Matrix of a word: product of its letter matrices."""
    m = identity_matrix(nfa.n_states)
    for a in w:
        m = mat_mul(m, letter_matrix(nfa, a))
    return m


@dataclass
class TransitionMonoid:
    """Closure of the letter matrices under Boolean product.

    elements lists the matrices in discovery order, words[i] is the
    shortlex-least word (letters in alphabet order) whose matrix is
    elements[i], and index maps each matrix to its position.  In the monoid
    elements[0] is the identity, reached by the empty word.
    """

    elements: list
    words: list
    index: dict

    @property
    def size(self):
        return len(self.elements)


def _closure(nfa, with_identity, budget):
    """Breadth-first closure under right multiplication by the letters.

    Letters are taken in alphabet order, so each element is first reached by
    its shortlex-least word.  The seeds (the identity when asked, then the
    letters) are always kept; a new product past the budget raises.
    """
    gens = [(a, letter_matrix(nfa, a)) for a in nfa.alphabet]
    seeds = [(identity_matrix(nfa.n_states), ())] if with_identity else []
    seeds += [(m, (a,)) for a, m in gens]
    elements, words, index = [], [], {}
    for m, w in seeds:
        if m not in index:
            index[m] = len(elements)
            elements.append(m)
            words.append(w)
    frontier = range(len(elements))
    while frontier:
        first = len(elements)
        for i in frontier:
            for a, g in gens:
                prod = mat_mul(elements[i], g)
                if prod not in index:
                    if len(elements) >= budget:
                        raise MonoidBudgetError(
                            "monoid closure exceeded budget of %d elements" % budget
                        )
                    index[prod] = len(elements)
                    elements.append(prod)
                    words.append(words[i] + (a,))
        frontier = range(first, len(elements))
    return TransitionMonoid(elements, words, index)


def transition_monoid(nfa, budget=100_000):
    """The transition monoid: the closure seeded with the identity and the
    letters; fails loudly past the element budget."""
    return _closure(nfa, True, budget)


def transition_semigroup(nfa, budget=100_000):
    """The transition semigroup: the closure seeded with the letters only,
    so every element is reached by a nonempty word."""
    return _closure(nfa, False, budget)


def profile_width_bound(m):
    """Window width sufficient for the locally-testable decision: 4*(size+1)."""
    return 4 * (m.size + 1)


def num_profiles(k, alphabet_size):
    """Number of possible width-k profiles over an alphabet of given size."""
    if k < 1:
        raise ValueError("k must be >= 1")
    kl = k // 2
    kr = k - kl
    a = alphabet_size
    left = sum(a ** i for i in range(kl + 1))
    right = sum(a ** j for j in range(kr + 1))
    return left * right


def threshold_bound(k, alphabet_size, n):
    """Counting threshold sufficient at width k: (num_profiles * n) ** num_profiles.

    n is one plus either the monoid size or the automaton size; exact bigint.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if alphabet_size < 1 or n < 1:
        raise ValueError("alphabet_size and n must be >= 1")
    ak = num_profiles(k, alphabet_size)
    return (ak * n) ** ak
