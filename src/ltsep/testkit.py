"""Instance generators and independent oracles used by the test suite and CLI.

The generators produce LangSpec values: hard instances encoding 3-CNF
formulas, the threshold-optimality family, the parity pair, and seeded
random specs.  The oracles (exact capped-signature comparison, brute-force
satisfiability) are deliberately independent of the solver pipeline.
"""

import random
import string
from dataclasses import dataclass

from .automata import LangSpec, Nfa, trim
from .profiles import language_signatures


@dataclass(frozen=True)
class Cnf3:
    """A 3-CNF formula: clauses are triples of signed 1-based variable indices."""

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        clauses = tuple(tuple(c) for c in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        for c in clauses:
            if len(c) != 3:
                raise ValueError("clause %r does not have 3 literals" % (c,))
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError("literal %d out of range" % lit)


def parse_cnf(text):
    """Parse a DIMACS-style CNF document into a Cnf3.

    Accepts an optional `p cnf <vars> <clauses>` header, `c` comment lines,
    and clause lines of three nonzero integers with an optional trailing 0.
    """
    num_vars = 0
    declared = None
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError("bad header line: %r" % raw)
            declared = int(fields[2])
            continue
        lits = [int(x) for x in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if len(lits) != 3:
            raise ValueError("clause line %r does not have 3 literals" % raw)
        clauses.append(tuple(lits))
        num_vars = max([num_vars] + [abs(x) for x in lits])
    if declared is not None:
        num_vars = max(num_vars, declared)
    return Cnf3(num_vars, tuple(clauses))


def sat_brute(cnf):
    """Exhaustive truth-table satisfiability for formulas with <= 20 variables."""
    if cnf.num_vars > 20:
        raise ValueError("brute-force limited to 20 variables")
    for mask in range(1 << cnf.num_vars):
        ok = True
        for clause in cnf.clauses:
            if not any(
                (mask >> (abs(lit) - 1)) & 1 == (1 if lit > 0 else 0)
                for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


# the padding letter of the hard instances ('#' would clash with the spec
# format's comment syntax)
PAD = "pad"


def _lit_sym(lit):
    return ("x%d" if lit > 0 else "!x%d") % abs(lit)


def _determinize(alphabet, transitions, init, finals):
    """Subset construction; returns (transitions, init_state, final_set, count).

    The result is a partial DFA (at most one successor per state and symbol)
    over dense integer states, accepting the same language.
    """
    delta = {}
    for (p, a, q) in transitions:
        delta.setdefault((p, a), set()).add(q)
    start = frozenset(init)
    index = {start: 0}
    order = [start]
    out = []
    pos = 0
    while pos < len(order):
        cur = order[pos]
        pos += 1
        for a in alphabet:
            succ = set()
            for q in cur:
                succ |= delta.get((q, a), set())
            if not succ:
                continue
            key = frozenset(succ)
            if key not in index:
                index[key] = len(order)
                order.append(key)
            out.append((index[cur], a, index[key]))
    final = frozenset(i for s, i in index.items() if s & set(finals))
    return out, 0, final, len(order)


def gen_sat_instance(cnf):
    """Two DFAs whose languages are LTT-separable iff the formula is unsatisfiable.

    Side 1 accepts exactly the words encoding truth assignments: a chain of
    variable gadgets, each choosing x_i or !x_i, with padding loops and a
    `pad, literal` loop on the chosen branch.  Side 2 runs one gadget per
    clause, choosing a literal of that clause, and ends in a state looping on
    the whole alphabet.  Both sides are determinized before assembly, so each
    output automaton has at most one successor per state and symbol.
    """
    n, clauses = cnf.num_vars, cnf.clauses
    alphabet = (PAD,) + tuple(
        _lit_sym(s * i) for i in range(1, n + 1) for s in (1, -1)
    )

    # Side 1: hub_0 .. hub_n with a branch pair per variable.
    t1 = []
    hubs = [("h", i) for i in range(n + 1)]
    states1 = list(hubs)
    for h in hubs:
        t1.append((h, PAD, h))
    for i in range(1, n + 1):
        for sign in (1, -1):
            b = ("b", i, sign)
            states1.append(b)
            sym = _lit_sym(sign * i)
            t1.append((("h", i - 1), sym, b))
            t1.append((b, PAD, b))
            t1.append((b, sym, b))
            t1.append((b, PAD, ("h", i)))
    idx1 = {s: j for j, s in enumerate(states1)}
    d1, init1, fin1, cnt1 = _determinize(
        alphabet,
        [(idx1[p], a, idx1[q]) for (p, a, q) in t1],
        [idx1[("h", 0)]],
        [idx1[("h", n)]],
    )

    # Side 2: one gadget per clause, final state looping on everything.
    t2 = []
    ghubs = [("g", j) for j in range(len(clauses) + 1)]
    states2 = list(ghubs)
    for g in ghubs[:-1]:
        t2.append((g, PAD, g))
    for a in alphabet:
        t2.append((ghubs[-1], a, ghubs[-1]))
    for j, clause in enumerate(clauses, start=1):
        for lit in sorted(set(clause)):
            c = ("c", j, lit)
            states2.append(c)
            sym = _lit_sym(lit)
            t2.append((("g", j - 1), sym, c))
            t2.append((c, PAD, c))
            t2.append((c, sym, c))
            t2.append((c, PAD, ("g", j)))
    idx2 = {s: j for j, s in enumerate(states2)}
    d2, init2, fin2, cnt2 = _determinize(
        alphabet,
        [(idx2[p], a, idx2[q]) for (p, a, q) in t2],
        [idx2[("g", 0)]],
        [idx2[("g", len(clauses))]],
    )

    trans = set(d1)
    for (p, a, q) in d2:
        trans.add((p + cnt1, a, q + cnt1))
    nfa = Nfa(cnt1 + cnt2, alphabet, frozenset(trans))
    return LangSpec(
        nfa,
        frozenset([init1]),
        fin1,
        frozenset([init2 + cnt1]),
        frozenset(q + cnt1 for q in fin2),
    )


def _star_chain(blocks, offset, trans):
    """States and transitions for block_1^* block_2^* ... block_r^*.

    Junction j_i marks 'blocks 1..i done'; block i can start from any earlier
    junction and cycles at its own.  Returns (junction list, state count).
    """
    r = len(blocks)
    junctions = [offset + i for i in range(r + 1)]
    nxt = offset + r + 1
    for i, word in enumerate(blocks, start=1):
        inner = []
        for _ in range(len(word) - 1):
            inner.append(nxt)
            nxt += 1
        chain = inner + [junctions[i]]
        for src in junctions[:i] + [junctions[i]]:
            trans.append((src, word[0], chain[0]))
        for step, sym in enumerate(word[1:], start=0):
            trans.append((chain[step], sym, chain[step + 1]))
    return junctions, nxt - offset


def gen_threshold_family(m):
    """The threshold-optimality pair over the alphabet a1..a_{2m}.

    L1 = a1 (a2 a3 a3)^* (a4 a5 a5)^* ... (a_{2m-2} a_{2m-1} a_{2m-1})^*
            (a_{2m} a_{2m} a_{2m})^*
    L2 = (a1 a2 a2)^* (a3 a4 a4)^* ... (a_{2m-1} a_{2m} a_{2m})^*

    The two sides are LTT[1, d]-separable exactly when d > 2^(2m-1).
    """
    if m < 1:
        raise ValueError("m must be positive")
    a = lambda t: "a%d" % t
    alphabet = tuple(a(t) for t in range(1, 2 * m + 1))

    blocks1 = [(a(2 * i), a(2 * i + 1), a(2 * i + 1)) for i in range(1, m)]
    blocks1.append((a(2 * m), a(2 * m), a(2 * m)))
    trans = []
    start1 = 0
    junc1, used1 = _star_chain(blocks1, 1, trans)
    trans.append((start1, a(1), junc1[0]))
    f1 = frozenset(junc1)

    blocks2 = [(a(2 * i - 1), a(2 * i), a(2 * i)) for i in range(1, m + 1)]
    off2 = 1 + used1
    junc2, used2 = _star_chain(blocks2, off2, trans)
    f2 = frozenset(junc2)

    nfa = Nfa(off2 + used2, alphabet, frozenset(trans))
    return LangSpec(nfa, frozenset([start1]), f1, frozenset([junc2[0]]), f2)


def gen_parity():
    """Even-length vs odd-length powers of a single letter: (aa)* against a(aa)*."""
    nfa = Nfa(2, ("a",), frozenset([(0, "a", 1), (1, "a", 0)]))
    return LangSpec(nfa, frozenset([0]), frozenset([0]), frozenset([0]), frozenset([1]))


def gen_random(seed, states, alphabet_size, density):
    """A reproducible random LangSpec, trimmed to its useful states."""
    if states < 1 or alphabet_size < 1:
        raise ValueError("states and alphabet_size must be positive")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)
    alphabet = tuple(string.ascii_lowercase[:alphabet_size])
    trans = []
    for p in range(states):
        for sym in alphabet:
            for q in range(states):
                if rng.random() < density:
                    trans.append((p, sym, q))

    def subset():
        s = frozenset(q for q in range(states) if rng.random() < 0.5)
        return s if s else frozenset([rng.randrange(states)])

    i1, f1, i2, f2 = subset(), subset(), subset(), subset()
    nfa = Nfa(states, alphabet, frozenset(trans))
    nfa, (i1, i2), (f1, f2) = trim(nfa, [i1, i2], [f1, f2])
    return LangSpec(nfa, i1, f1, i2, f2)


def exact_fixed_oracle(spec, k, d, state_budget=500_000):
    """Exact fixed-parameter separability by explicit signature enumeration.

    Collects the full sets of capped profile images realized by each side and
    reports "inseparable" exactly when they share a signature.  Independent of
    the flow-based decision path; raises AnnotationBudgetError past the budget.
    """
    sig1 = language_signatures(spec.nfa, spec.i1, spec.f1, k, d, state_budget)
    sig2 = language_signatures(spec.nfa, spec.i2, spec.f2, k, d, state_budget)
    return "inseparable" if sig1 & sig2 else "separable"


def sample_words(nfa, i, f, count, rng, max_len=40, tries=2000):
    """Up to `count` distinct accepted words found by bounded random walks."""
    out = nfa.out()
    fset = set(f)
    found = []
    seen = set()
    for _ in range(tries):
        if len(found) >= count:
            break
        cur = rng.choice(sorted(i)) if i else None
        if cur is None:
            break
        word = []
        stop_at = rng.randrange(max_len + 1)
        for _step in range(max_len):
            if cur in fset and len(word) >= stop_at:
                break
            opts = out.get(cur)
            if not opts:
                break
            a, cur = rng.choice(opts)
            word.append(a)
        if cur in fset and tuple(word) not in seen:
            seen.add(tuple(word))
            found.append(tuple(word))
    return found
