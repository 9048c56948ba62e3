"""Corpora, operations and reference checks of the ltsep benchmark.

Each workload is a fixed base corpus built from `ltsep.testkit` generators
with their generator seeds taken in order.  The benchmark seed and a copy
number pick an isomorphic copy of every base instance: its letters are
renamed and its states permuted.  Copies of CNF encodings only swap the two
polarities of some variables, because renumbering their states moves single
operations by up to 10x.  Membership query words are sampled from the base
instance and renamed along.  A copy has the same verdicts, so the corpus mix
is the same for every seed while the inputs the program sees differ.

A corpus is a list of `Item`s holding spec text; every operation starts
from `parse_spec`, as the command line does.
"""

import itertools
import random
from dataclasses import dataclass, field

from ltsep import monoid, separ
from ltsep.automata import LangSpec, Nfa, accepts, parse_spec, product, serialize_spec, shortest_word
from ltsep.profiles import AnnotationBudgetError, split_width
from ltsep.testkit import (
    PAD,
    Cnf3,
    exact_fixed_oracle,
    gen_parity,
    gen_random,
    gen_sat_instance,
    gen_threshold_family,
    sample_words,
    sat_brute,
)

# base corpus sizes, chosen so that one pass fits inside a timed run
SAT_RANDOM_FORMULAS = 22
REDUCE_SPECS = 80
FIXED_SEEDS = 40

# membership queries per side after each separable verdict with a handle
MEMBERSHIP_WORDS = 8
# random walks per side when sampling them: where a side has fewer distinct
# short words, the default of 2,000 walks found no more on any base instance
# than 500 do, and took most of the corpus build time of reduce-unary
SAMPLE_TRIES = 500

# state budget of the reference oracle; larger instances stay unchecked.
# Every base instance fits within 1,000 states or exceeds 20,000, so any
# budget in between checks the same ones; running up to 20,000 took 2.7 s
# per run
ORACLE_BUDGET = 5_000


@dataclass
class Item:
    """One corpus instance: spec text plus what the reference checks need."""

    name: str
    text: str
    ops: tuple  # names of the decide operations run on this item
    cnf: object = None  # Cnf3 for sat-cnf items
    k: int = None  # window width of the fixed-direct operation
    words: dict = field(default_factory=dict)  # 1|2 -> membership query words


def relabel(spec, rng, classes, permute_states=True):
    """An isomorphic copy of spec and its letter renaming: letters shuffled
    within each of the given classes and, optionally, states permuted."""
    n = spec.nfa.n_states
    perm = list(range(n))
    if permute_states:
        rng.shuffle(perm)
    ren = {}
    for cls in classes:
        shuffled = list(cls)
        rng.shuffle(shuffled)
        ren.update(zip(cls, shuffled))
    trans = frozenset((perm[p], ren[a], perm[q]) for (p, a, q) in spec.nfa.transitions)

    def m(s):
        return frozenset(perm[q] for q in s)

    nfa = Nfa(n, spec.nfa.alphabet, trans)
    return LangSpec(nfa, m(spec.i1), m(spec.f1), m(spec.i2), m(spec.f2)), ren


def polarity_classes(alphabet):
    """Letter classes of a CNF encoding: the padding letter alone, and each
    variable's two literals; swapping a pair flips that variable's sign."""
    classes = [(PAD,)]
    for sym in alphabet:
        if sym.startswith("x"):
            classes.append((sym, "!" + sym))
    return classes


# ---------------------------------------------------------------- base corpora


def crafted_cores():
    """The four unsatisfiable cores that open the criterion-6 formula batch."""
    full = tuple(
        tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for signs in itertools.product((1, -1), repeat=3)
    )
    return [
        Cnf3(3, full),
        Cnf3(1, ((1, 1, 1), (-1, -1, -1))),
        Cnf3(5, ((1, 1, 1), (-1, -1, -1), (2, -3, 4), (-2, 5, 5))),
        Cnf3(6, tuple(tuple(s * v for s, v in zip(signs, (2, 3, 4)))
                      for signs in itertools.product((1, -1), repeat=3))),
    ]


def sat_formulas(count):
    """The crafted cores, then `count` random 3-CNF formulas drawn as in
    criterion 6 (generator seed 606) but with n in [3, 6] variables and
    m in [1, 6] clauses, so that a pass fits in a run."""
    batch = crafted_cores()
    rng = random.Random(606)
    for _ in range(count):
        n = rng.randint(3, 6)
        m = rng.randint(1, 6)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(m)
        )
        batch.append(Cnf3(n, clauses))
    return batch


def disjoint(spec):
    """Whether L1 ∩ L2 is empty."""
    prod, ix = product(spec.nfa, spec.nfa)
    i = {ix[(p, q)] for p in spec.i1 for q in spec.i2}
    f = {ix[(p, q)] for p in spec.f1 for q in spec.f2}
    return shortest_word(prod, i, f) is None


def reduce_specs(count):
    """The first `count` specs gen_random(s, 5, 1, 0.3), s = 0, 1, ..., with
    L1 ∩ L2 empty, so the intersection check cannot decide them."""
    out = []
    s = 0
    while len(out) < count:
        spec = gen_random(s, 5, 1, 0.3)
        if disjoint(spec):
            out.append(("r%d" % s, spec))
        s += 1
    return out


def direct_width_fits(spec, k):
    """Criterion 8's size filter for the direct path: 2·n·windows <= 25,000."""
    asz = len(spec.nfa.alphabet)
    n = max(spec.nfa.n_states, 1)
    kl, kr = split_width(k)
    windows = sum(asz ** i for i in range(min(kl, 40) + 1)) * sum(
        asz ** j for j in range(min(kr, 40) + 1)
    )
    return 2 * n * windows <= 25_000


def fixed_specs(seeds):
    """Criterion 8's family over its first `seeds` seeds, kept where the
    direct path fits; yields (name, spec, k)."""
    out = []
    rng = random.Random(8000)
    for seed in range(seeds):
        spec = gen_random(10_000 + seed, rng.randint(1, 3), rng.randint(1, 2), 0.4)
        k = monoid.profile_width_bound(monoid.transition_monoid(spec.nfa))
        if direct_width_fits(spec, k):
            out.append(("c%d" % (10_000 + seed), spec, k))
    return out


def _item(name, base, rng, classes, ops, permute_states=True, **extra):
    spec, ren = relabel(base, rng, classes, permute_states)
    item = Item(name, serialize_spec(spec), ops, **extra)
    for side, (i, f) in ((1, (base.i1, base.f1)), (2, (base.i2, base.f2))):
        walk = random.Random("%s/%d" % (name, side))
        words = sample_words(base.nfa, i, f, MEMBERSHIP_WORDS, walk, tries=SAMPLE_TRIES)
        item.words[side] = [tuple(ren[a] for a in w) for w in words]
    return item


def build_corpus(workload, seed, copy=0):
    """One isomorphic copy of a workload's corpus; the same seed and copy
    number give the same inputs."""
    rng = random.Random("%s/%d/%d" % (workload, seed, copy))
    if workload == "sat-cnf":
        items = []
        for j, cnf in enumerate(sat_formulas(SAT_RANDOM_FORMULAS)):
            base = gen_sat_instance(cnf)
            classes = polarity_classes(base.nfa.alphabet)
            items.append(_item("f%d" % j, base, rng, classes, ("ltt", "lt"),
                               permute_states=False, cnf=cnf))
        return items
    if workload == "reduce-unary":
        return [
            _item(name, base, rng, [base.nfa.alphabet], ("ltt", "lt"))
            for name, base in reduce_specs(REDUCE_SPECS)
        ]
    if workload == "fixed-direct":
        return [
            _item(name, base, rng, [base.nfa.alphabet], ("fixed",), k=k)
            for name, base, k in fixed_specs(FIXED_SEEDS)
        ]
    raise ValueError("unknown workload %r" % (workload,))


# ---------------------------------------------------------------- operations


def op_ltt(spec):
    return separ.decide_ltt(spec)


def op_lt(spec):
    return separ.decide_lt(spec)


def op_fixed(spec):
    """The LT direct path: width 4(|M|+1) from the transition monoid, then
    one fixed-parameter decision at threshold 1."""
    k = monoid.profile_width_bound(monoid.transition_monoid(spec.nfa))
    return separ.decide_fixed(spec, k, 1)


OPS = {"ltt": op_ltt, "lt": op_lt, "fixed": op_fixed}


def warm_up():
    """Exercise the decision paths, HiGHS and a membership query once before
    anything is timed."""
    spec = parse_spec(serialize_spec(gen_parity()))
    separ.decide_ltt(spec)
    separ.decide_lt(spec)
    verdict = separ.decide_fixed(gen_threshold_family(1), 1, 3)
    separ.separator_membership(verdict.separator, ("a1",))


PATHS = ("intersection", "reduction", "doubling", "fixed-probe", "exact-match-pool",
         "fixed", "unknown")


def path_of(verdict):
    """The deciding path named by a verdict's notes and flags."""
    if verdict.separable is None:
        return "unknown"
    if verdict.problem == "fixed":
        return "fixed"
    if verdict.notes.get("reason") == "nonempty intersection":
        return "intersection"
    via = verdict.notes.get("via")
    if via is not None:
        return via
    if verdict.notes.get("usable_threshold") is not None:
        return "doubling"
    return "reduction"


# ---------------------------------------------------------------- reference checks


def reference_image(w, k, d):
    """Window counts at (k, d) recomputed by plain slicing."""
    kl, kr = split_width(k)
    counts = {}
    for x in range(len(w)):
        key = (w[max(0, x - kl):x], w[x:x + kr])
        counts[key] = min(d, counts.get(key, 0) + 1)
    return counts


def _pair_ok(spec, w1, w2, k, d):
    return (
        accepts(spec.nfa, spec.i1, spec.f1, w1)
        and accepts(spec.nfa, spec.i2, spec.f2, w2)
        and reference_image(w1, k, d) == reference_image(w2, k, d)
    )


def expected_status(item, op, spec):
    """The reference verdict of one operation: "separable", "inseparable",
    or None where no reference fits its budget."""
    if item.cnf is not None:
        return "inseparable" if sat_brute(item.cnf) else "separable"
    if op in ("lt", "fixed"):
        k = item.k
        if k is None:
            k = monoid.profile_width_bound(monoid.transition_monoid(spec.nfa))
        try:
            return exact_fixed_oracle(spec, k, 1, ORACLE_BUDGET)
        except AnnotationBudgetError:
            return None
    return None


def check_item(item, verdicts, oracle=True):
    """Reference checks of one item's verdicts: (checked, unchecked, mismatches).

    verdicts maps op name -> decided Verdict.  With oracle False the
    enumeration oracle is skipped (the verdict is then neither checked nor
    unchecked here; the caller compares it with a checked copy); the cheap
    checks still run.
    """
    spec = parse_spec(item.text)
    checked = unchecked = 0
    bad = []
    for op, v in verdicts.items():
        if oracle or item.cnf is not None:
            want = expected_status(item, op, spec)
            if want is None:
                unchecked += 1
            else:
                checked += 1
                if v.status != want:
                    bad.append("%s/%s: %s, reference says %s" % (item.name, op, v.status, want))
        if v.separable is False:
            if isinstance(v.witness, separ.WitnessPair):
                w = v.witness
                ok = _pair_ok(spec, w.w1, w.w2, w.k, w.d)
            else:
                try:
                    ok = all(_pair_ok(spec, *separ.replay_witness(v, d), 1, d) for d in (1, 2))
                except ValueError:
                    ok = False
            if not ok:
                bad.append("%s/%s: witness does not replay" % (item.name, op))
    lt, ltt = verdicts.get("lt"), verdicts.get("ltt")
    if lt is not None and ltt is not None and lt.separable is True and ltt.separable is not True:
        bad.append("%s: LT-separable but LTT says %s" % (item.name, ltt.status))
    return checked, unchecked, bad
