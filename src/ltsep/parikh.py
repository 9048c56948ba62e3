"""Letter-count reasoning over NFAs via integer flow systems.

A word of L(nfa, i, f) corresponds to a multiset of transitions that forms an
Eulerian path from an initial to a final state; conversely any conserved,
source-connected edge multiplicity vector decomposes into such a path.  This
module encodes these flows as integer feasibility problems, decides
threshold-matching between two languages (fixed threshold, and in the limit
over all thresholds via pump certificates), and reconstructs witness words
from feasible flows.

Connectivity of the used-edge subgraph to the chosen source has two
encodings.  The two-sided matches (match_fixed, match_limit) start from one
row per state of each strongly connected component that holds no initial
state (_ConnReq.seed: flow inside the component needs flow entering it),
then add cut rows lazily: solve, check the support of the solution, and
forbid disconnected supports until the support is connected.  Both kinds
of row hold for every connected flow, so neither changes the feasible set
or the optimum.  The one-sided query (feasible)
adds a commodity flow up front (_add_support_reach) and solves once; the
engine no longer calls it (separator membership is an exact window search
in separ), but the benchmark's tracer still wraps it by name, so it stays
until that tracer drops it.  Integer feasibility itself is delegated to
scipy's MILP interface; returned solutions are re-verified in exact
integer arithmetic before use.

Every model bounds its variables by a box, which is also the big-M of its
threshold rows and cuts; HiGHS is far faster in a small box than in the
100,000 `cap`.  match_fixed first solves in the box _fixed_bound: at a
threshold d, a proven bound on the run length of some match when one
exists; for an exact match, a first guess of twice the summed state
count.  It keeps that answer when the box makes it final: UNSAT at a
given threshold, or SAT whose minimum variable sum, less the four
endpoint selectors, fits in the box, which is then the minimum of the cap
model too.  Otherwise it solves again at cap.  feasible gets its box from
its caller; match_limit solves at cap, since there an UNSAT answer in a
small box settles nothing.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import milp, LinearConstraint, Bounds

from .automata import Nfa, trim

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class SolverStall(RuntimeError):
    """The backend solver returned neither a solution nor an infeasibility proof."""


class MipModel:
    """A thin incremental builder for pure integer feasibility problems."""

    def __init__(self):
        self.lb = []
        self.ub = []
        self.rows = []  # (terms: dict var->coef, lo, hi)

    def add_var(self, lb=0, ub=None):
        self.lb.append(lb)
        self.ub.append(ub if ub is not None else np.inf)
        return len(self.lb) - 1

    def add_row(self, terms, lo, hi):
        self.rows.append((dict(terms), lo, hi))

    def add_eq(self, terms, rhs):
        self.add_row(terms, rhs, rhs)

    def add_le(self, terms, rhs):
        self.add_row(terms, -np.inf, rhs)

    def add_ge(self, terms, rhs):
        self.add_row(terms, rhs, np.inf)

    def solve(self):
        """Return an exact integer solution list, None if infeasible.

        Raises SolverStall when the backend fails to settle the instance or
        when its solution does not survive exact re-verification.
        """
        nvars = len(self.lb)
        if nvars == 0:
            return []
        data, rix, cix, lo, hi = [], [], [], [], []
        for r, (terms, l, h) in enumerate(self.rows):
            for v, c in terms.items():
                if c:
                    data.append(c)
                    rix.append(r)
                    cix.append(v)
            lo.append(l)
            hi.append(h)
        if self.rows:
            a = sparse.csc_array(
                (data, (rix, cix)), shape=(len(self.rows), nvars), dtype=float
            )
            constraints = LinearConstraint(a, lo, hi)
        else:
            constraints = ()
        # minimizing the variable sum keeps witness flows small; feasibility
        # and infeasibility proofs are unaffected
        res = milp(
            c=np.ones(nvars),
            constraints=constraints,
            integrality=np.ones(nvars),
            bounds=Bounds(np.array(self.lb, dtype=float), np.array(self.ub, dtype=float)),
        )
        if res.status == 2:  # proven infeasible
            return None
        if res.status != 0 or res.x is None:
            raise SolverStall("solver status %s: %s" % (res.status, res.message))
        sol = [int(round(x)) for x in res.x]
        self._verify(sol)
        return sol

    def _verify(self, sol):
        for v, x in enumerate(sol):
            if x < self.lb[v] - 1e-9 or x > self.ub[v] + 1e-9:
                raise SolverStall("solution violates variable bounds")
        for (terms, l, h) in self.rows:
            s = sum(c * sol[v] for v, c in terms.items())
            if (l != -np.inf and s < l) or (h != np.inf and s > h):
                raise SolverStall("solution violates a constraint row")


@dataclass(frozen=True)
class FlowSystem:
    """The flow view of one language L(nfa, i, f).

    The automaton is trimmed to its useful part; edges is the ordered
    transition list the multiplicity variables refer to.
    """

    nfa: Nfa
    i: frozenset
    f: frozenset
    edges: tuple

    @property
    def letters(self):
        return self.nfa.alphabet


def flow_system(nfa, i, f):
    nfa2, (i2,), (f2,) = trim(nfa, [set(i)], [set(f)])
    edges = tuple(sorted(nfa2.transitions))
    return FlowSystem(nfa2, frozenset(i2), frozenset(f2), edges)


@dataclass
class FlowAssignment:
    """A realizable flow: edge multiplicities plus endpoint choice."""

    edge_mult: dict
    source: int
    sink: int
    letter_counts: dict


def _letter_index(system, edge_vars):
    """Map each letter to the variables of its edges, in edge order."""
    index = {}
    for (_p, a, _q), v in zip(system.edges, edge_vars):
        index.setdefault(a, []).append(v)
    return index


@dataclass
class _SideVars:
    system: FlowSystem
    edge_vars: list
    src_vars: dict
    snk_vars: dict
    by_letter: dict  # letter -> edge variables carrying it

    def count_terms(self, sym):
        return {v: 1 for v in self.by_letter.get(sym, ())}

    def count_var(self, model, sym, cap):
        """A single bounded variable tied by equality to the letter's count."""
        x = model.add_var(0, cap)
        terms = self.count_terms(sym)
        terms[x] = terms.get(x, 0) - 1
        model.add_eq(terms, 0)
        return x


def _conservation(system, edge_vars):
    """The conservation rows shared by paths and circulations.

    Row q holds +1 for every edge variable leaving q and -1 for every one
    entering q; self-loops cancel and are left out.  One pass over the
    edges fills all rows, each keyed in edge order.
    """
    rows = [{} for _ in range(system.nfa.n_states)]
    for (p, _a, r), v in zip(system.edges, edge_vars):
        if p != r:
            rows[p][v] = 1
            rows[r][v] = -1
    return rows


def _add_flow(model, system, cap):
    """Add one side's flow variables and conservation rows to the model."""
    edge_vars = [model.add_var(0, cap) for _ in system.edges]
    src_vars = {q: model.add_var(0, 1) for q in sorted(system.i)}
    snk_vars = {q: model.add_var(0, 1) for q in sorted(system.f)}
    side = _SideVars(
        system, edge_vars, src_vars, snk_vars, _letter_index(system, edge_vars)
    )
    if not src_vars or not snk_vars:
        # empty language: no endpoints selectable
        model.add_eq({}, 1)
        return side
    model.add_eq({v: 1 for v in src_vars.values()}, 1)
    model.add_eq({v: 1 for v in snk_vars.values()}, 1)
    for q, terms in enumerate(_conservation(system, edge_vars)):
        if q in src_vars:
            terms[src_vars[q]] = -1
        if q in snk_vars:
            terms[snk_vars[q]] = 1
        model.add_eq(terms, 0)
    return side


def _add_circulation(model, system, cap):
    """Conserved flow with no endpoints (a disjoint union of cycles)."""
    cyc_vars = [model.add_var(0, cap) for _ in system.edges]
    for terms in _conservation(system, cyc_vars):
        if terms:
            model.add_eq(terms, 0)
    return cyc_vars


@dataclass
class _ConnReq:
    """One support-connectivity requirement checked after each solve."""

    system: FlowSystem
    var_groups: list  # per edge: list of variables whose sum is the flow value
    src_vars: dict
    cap: int
    comps: list = field(default_factory=list)  # every comp cut so far

    def violation(self, sol):
        """Return a set C of support states unreachable from the source, or None."""
        values = [sum(sol[v] for v in grp) for grp in self.var_groups]
        used_edges = [e for e, val in zip(self.system.edges, values) if val > 0]
        if not used_edges:
            return None
        src = None
        for q, v in self.src_vars.items():
            if sol[v] > 0:
                src = q
        support = {src} if src is not None else set()
        for (p, _a, q) in used_edges:
            support.add(p)
            support.add(q)
        succ = {}
        for (p, _a, q) in used_edges:
            succ.setdefault(p, set()).add(q)
        seen = set()
        stack = [src] if src is not None else []
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(succ.get(p, ()))
        unreached = support - seen
        return unreached or None

    def seed(self, model):
        """Add the rows every connected flow satisfies, before the first solve.

        Take a strongly connected component C that holds no initial state.
        A connected flow that uses an out-edge of a state q inside C reaches
        q from the source, outside C, so some edge entering C carries flow.
        Each variable is at most cap, so for each such q the row says: the
        variables of q's out-edges inside C sum to at most cap times their
        number times the variables of the edges entering C.  Cut rounds
        remain for disconnected cycles these rows do not catch.
        """
        comp = _components(self.system)
        initial = {comp[q] for q in self.src_vars}
        inside = {}  # state -> variables of its out-edges inside its component
        entering = {}  # component -> variables of the edges entering it
        for (p, _a, q), grp in zip(self.system.edges, self.var_groups):
            if comp[p] == comp[q]:
                inside.setdefault(p, []).extend(grp)
            else:
                entering.setdefault(comp[q], []).extend(grp)
        for q, out in inside.items():
            if comp[q] in initial:
                continue
            terms = dict.fromkeys(out, 1)
            for v in entering.get(comp[q], ()):
                terms[v] = -self.cap * len(out)
            model.add_le(terms, 0)

    def add_cut(self, model, comp):
        """Forbid flow into comp without entering flow or an in-comp source.

        Each row bounds one internal edge's group of variables, whose sum
        can reach cap times the group's size, so one unit of entering flow
        or a source inside comp must allow that much.
        """
        self.comps.append(comp)
        entering = []
        for e, grp in zip(self.system.edges, self.var_groups):
            if e[2] in comp and e[0] not in comp:
                entering.extend(grp)
        srcs = [v for q, v in self.src_vars.items() if q in comp]
        for e, grp in zip(self.system.edges, self.var_groups):
            if e[2] in comp and e[0] in comp:
                big = self.cap * len(grp)
                terms = {}
                for v in grp:
                    terms[v] = terms.get(v, 0) + 1
                for v in entering:
                    terms[v] = terms.get(v, 0) - big
                for v in srcs:
                    terms[v] = terms.get(v, 0) - big
                model.add_le(terms, 0)


def _solve_connected(model, reqs, max_rounds=200):
    """Seed each requirement's rows, then solve, adding connectivity cuts
    until every requirement holds."""
    for req in reqs:
        req.seed(model)
    for _ in range(max_rounds):
        sol = model.solve()
        if sol is None:
            return None
        bad = False
        for req in reqs:
            comp = req.violation(sol)
            if comp is not None:
                req.add_cut(model, comp)
                bad = True
        if not bad:
            return sol
    raise SolverStall("connectivity cut generation did not converge")


def _extract(side, sol):
    mult = {}
    counts = {}
    for e, v in zip(side.system.edges, side.edge_vars):
        x = sol[v]
        if x:
            mult[e] = x
            counts[e[1]] = counts.get(e[1], 0) + x
    src = next(q for q, v in side.src_vars.items() if sol[v] > 0)
    snk = next(q for q, v in side.snk_vars.items() if sol[v] > 0)
    return FlowAssignment(mult, src, snk, counts)


def _add_support_reach(model, system, side, cap):
    """One-shot support-connectivity encoding for a single flow side.

    Edge-use indicators z_e plus an auxiliary commodity: the chosen source
    injects |E| units, each used edge absorbs one unit at its tail, and the
    commodity may only travel along used edges.  Feasible exactly when every
    used edge's tail is reachable from the source through used edges, which
    together with conservation makes the flow Eulerian-decomposable.  The
    big-M coefficient is |E|+1, independent of the flow cap.
    """
    edges = system.edges
    if not edges or not side.src_vars:
        return
    big = len(edges) + 1
    z = [model.add_var(0, 1) for _ in edges]
    y = [model.add_var(0, big) for _ in edges]
    for m, zi, yi in zip(side.edge_vars, z, y):
        model.add_le({m: 1, zi: -cap}, 0)  # used => z = 1
        model.add_ge({m: 1, zi: -1}, 0)  # z = 1 => used
        model.add_le({yi: 1, zi: -big}, 0)  # commodity only on used edges
    rows = [{} for _ in range(system.nfa.n_states)]
    for (p, _a, r), zi, yi in zip(edges, z, y):
        rows[p][yi] = -1
        rows[p][zi] = -1
        rows[r][yi] = rows[r].get(yi, 0) + 1  # a self-loop cancels to 0
    for q, terms in enumerate(rows):
        if q in side.src_vars:
            terms[side.src_vars[q]] = big
        if terms:
            model.add_ge(terms, 0)


@dataclass
class FeasResult:
    status: str
    assignment: object = None


def feasible(system, count_eq=None, count_ge=None, count_zero_rest=False, cap=100_000):
    """Search for a flow whose letter counts satisfy the given constraints.

    count_eq: symbol -> exact count; count_ge: symbol -> lower bound;
    count_zero_rest forces every unmentioned letter of the system to count 0.
    """
    count_eq = dict(count_eq or {})
    count_ge = dict(count_ge or {})
    if not system.i or not system.f:
        # trimmed-empty language: feasible only never
        return FeasResult(UNSAT)
    model = MipModel()
    side = _add_flow(model, system, cap)
    mentioned = set(count_eq) | set(count_ge)
    for sym, c in count_eq.items():
        model.add_eq(side.count_terms(sym), c)
    for sym, c in count_ge.items():
        model.add_ge(side.count_terms(sym), c)
    if count_zero_rest:
        for sym in system.letters:
            if sym not in mentioned:
                terms = side.count_terms(sym)
                if terms:
                    model.add_eq(terms, 0)
    _add_support_reach(model, system, side, cap)
    try:
        sol = model.solve()
    except SolverStall:
        return FeasResult(UNKNOWN)
    if sol is None:
        return FeasResult(UNSAT)
    return FeasResult(SAT, _extract(side, sol))


@dataclass
class MatchResult:
    status: str
    assignment1: object = None
    assignment2: object = None
    certain: bool = True  # UNSAT answers: whether the box bound was generous


def _components(system):
    """Map each state of system to a representative of its strongly
    connected component.

    Kosaraju: finishing order on the graph, then components on its reverse.
    """
    n = system.nfa.n_states
    adj = {}
    radj = {}
    for (p, _a, q) in system.edges:
        adj.setdefault(p, set()).add(q)
        radj.setdefault(q, set()).add(p)
    order = []
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        stack = [(s, iter(sorted(adj.get(s, ()))))]
        seen.add(s)
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(sorted(adj.get(w, ())))))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    comp = {}
    for s in reversed(order):
        if s in comp:
            continue
        stack = [s]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp[v] = s
            stack.extend(w for w in radj.get(v, ()) if w not in comp)
    return comp


def _letter_bounds(system):
    """Map each letter to an upper bound on its count over the language.

    The bound is None when the count is unbounded.  A word of the language
    is a path from an initial to a final state, and a path can repeat an
    edge without limit exactly when the edge lies on a cycle: a self-loop,
    or an edge whose endpoints share a strongly connected component.  Any
    other edge is crossed at most once, since returning to it would close
    a cycle through it.  So a letter on some cycle edge is unbounded and
    any other letter is bounded by its number of edges.  One SCC pass and
    one sweep over the edges give every letter's bound.
    """
    comp = _components(system)
    bounds = {a: 0 for a in system.letters}
    for (p, a, q) in system.edges:
        if comp[p] == comp[q]:
            bounds[a] = None
        elif bounds[a] is not None:
            bounds[a] += 1
    return bounds


def _fixed_bound(sys1, sys2, letters, d, bounds):
    """The box in which match_fixed first solves.

    At a threshold d the box bounds the run length of some match on each
    side, so an UNSAT answer inside it is final.  Take a match and one
    side's run.  For each letter of letters, mark its occurrences if it
    occurs fewer than d times, else mark d of them: at most min(d, m) marks
    for a letter whose count is at most m on this side (_letter_bounds), so
    M marks in all.  The unmarked edges form at most M + 1 stretches.  A
    stretch of n or more edges, n the side's state count, repeats a state,
    and cutting out the cycle between the repeats leaves a run between the
    same endpoints with every marked edge: a letter below d keeps its count,
    which the other side's count equals, and a letter at d or more stays
    there, as the other side's count does.  So the match holds after every
    such cut, and at the end the run has at most M + (M + 1)(n - 1) edges,
    less than n (M + 1).  Every variable of the model (an edge or letter
    count, or a 0/1 selector) is at most that length, and a connected flow
    with edge counts in the box satisfies the box's cuts.

    Exact matches (d=None) have no such bound: {a^7j} and {a^11j} match
    only at 77t letters.  There the box, twice the summed state count plus
    three, is a first guess, and only a SAT answer inside it is final.

    A SAT answer whose optimum (the variable sum: every variable is
    nonnegative with cost 1) is at most the box is final for any d: a
    cheaper connected solution in a larger box would have every variable
    below the box, so it would lie in the box and satisfy the box's cuts.
    The boxed optimum is then the optimum in the larger box.  Every
    solution sets exactly four endpoint selectors, so an optimum up to the
    box plus 4 is final too: a cheaper solution has every other variable at
    most the optimum minus 5.
    """
    if d is None:
        return 2 * (sys1.nfa.n_states + sys2.nfa.n_states) + 3
    box = 0
    for system, side in zip((sys1, sys2), bounds):
        marks = 0
        for sym in letters:
            if sym in side:
                marks += d if side[sym] is None else min(d, side[sym])
        box = max(box, system.nfa.n_states * (marks + 1))
    return box


def _match_model(sys1, sys2, letters, d, bounds, box):
    """The match_fixed model with every variable bound, count variable,
    big-M row and cut coefficient set to box.

    bounds is the pair of _letter_bounds of the two sides (None when d is
    None).  Returns the model, both sides' variables and the connectivity
    requirements.
    """
    model = MipModel()
    s1 = _add_flow(model, sys1, box)
    s2 = _add_flow(model, sys2, box)
    for sym in letters:
        t1 = s1.count_terms(sym)
        t2 = s2.count_terms(sym)
        equal = d is None or not t1 or not t2
        if not equal:
            # the both->=d branch is unreachable when a side stays below d
            m1 = bounds[0].get(sym, 0)
            m2 = bounds[1].get(sym, 0)
            equal = (m1 is not None and m1 < d) or (m2 is not None and m2 < d)
        if equal:
            terms = dict(t1)
            for v, c in t2.items():
                terms[v] = terms.get(v, 0) - c
            model.add_eq(terms, 0)
            continue
        x1 = s1.count_var(model, sym, box)
        x2 = s2.count_var(model, sym, box)
        dif = model.add_var(0, 1)
        model.add_le({x1: 1, x2: -1, dif: -box}, 0)
        model.add_le({x2: 1, x1: -1, dif: -box}, 0)
        model.add_ge({x1: 1, dif: -d}, 0)
        model.add_ge({x2: 1, dif: -d}, 0)
    reqs = [
        _ConnReq(sys1, [[v] for v in s1.edge_vars], s1.src_vars, box),
        _ConnReq(sys2, [[v] for v in s2.edge_vars], s2.src_vars, box),
    ]
    return model, s1, s2, reqs


def match_fixed(sys1, sys2, letters, d, cap=100_000):
    """Find letter-count vectors of the two languages equal up to threshold d.

    d=None asks for exactly equal vectors.  Letters outside a side's alphabet
    count as the constant 0 on that side.

    The match is first solved in the box B = min(cap, _fixed_bound), where
    the MILP is far easier than in the cap box.  Its answer stands when it
    is UNSAT at a given d, or SAT with objective at most B + 4, which is
    then the cap optimum (see _fixed_bound).  Otherwise (UNSAT at d=None, a
    costlier optimum, or a stall) the model is rebuilt at cap, seeded with
    the connectivity cuts of the boxed solve (they hold for every connected
    flow), and solved again.  A stall at cap keeps a boxed SAT answer: its
    flows are a match, perhaps not the cheapest.
    """
    if not sys1.i or not sys1.f or not sys2.i or not sys2.f:
        return MatchResult(UNSAT)
    letters = list(letters)
    bounds = None if d is None else (_letter_bounds(sys1), _letter_bounds(sys2))
    fixed = _fixed_bound(sys1, sys2, letters, d, bounds)
    res = MatchResult(UNKNOWN)
    seen = ([], [])
    for box in sorted({min(cap, fixed), cap}):
        model, s1, s2, reqs = _match_model(sys1, sys2, letters, d, bounds, box)
        for req, comps in zip(reqs, seen):
            for comp in comps:
                req.add_cut(model, comp)
        seen = [req.comps for req in reqs]
        try:
            sol = _solve_connected(model, reqs)
        except SolverStall:
            if res.status != SAT:
                res = MatchResult(UNKNOWN)
            continue
        if sol is None:
            res = MatchResult(UNSAT, certain=d is None or fixed <= box)
            if d is not None:
                break
        else:
            res = MatchResult(SAT, _extract(s1, sol), _extract(s2, sol))
            if sum(sol) - 4 <= box:
                break
    return res


@dataclass
class PumpCertificate:
    """Base flows plus circulations matching at every counting threshold.

    Off the unbounded letter set U, base counts and cycle counts agree between
    the two sides; on U both cycles have count >= 1.  Hence base + t*cycle on
    each side realizes a matching pair at threshold t for every t.
    """

    base1: FlowAssignment
    base2: FlowAssignment
    cycle1: dict
    cycle2: dict
    unbounded_set: frozenset

    def pumped(self, which, t):
        """The flow base + t*cycle for one side, as a FlowAssignment."""
        base = self.base1 if which == 1 else self.base2
        cyc = self.cycle1 if which == 1 else self.cycle2
        mult = dict(base.edge_mult)
        for e, m in cyc.items():
            mult[e] = mult.get(e, 0) + t * m
        counts = {}
        for (p, a, q), m in mult.items():
            counts[a] = counts.get(a, 0) + m
        return FlowAssignment(mult, base.source, base.sink, counts)


def match_limit(sys1, sys2, letters, cap=100_000):
    """Find a PumpCertificate: matching vectors at every threshold, or report none."""
    if not sys1.i or not sys1.f or not sys2.i or not sys2.f:
        return MatchResult(UNSAT)
    model = MipModel()
    s1 = _add_flow(model, sys1, cap)
    s2 = _add_flow(model, sys2, cap)
    c1 = _add_circulation(model, sys1, cap)
    c2 = _add_circulation(model, sys2, cap)

    cyc_index1 = _letter_index(sys1, c1)
    cyc_index2 = _letter_index(sys2, c2)

    def cyc_terms(index, sym):
        return {v: 1 for v in index.get(sym, ())}

    letters = list(letters)
    u_vars = {}
    for sym in letters:
        b1 = s1.count_terms(sym)
        b2 = s2.count_terms(sym)
        g1 = cyc_terms(cyc_index1, sym)
        g2 = cyc_terms(cyc_index2, sym)
        if not g1 or not g2:
            # some side cannot grow this letter: it can never join U
            for a, b in ((b1, b2), (g1, g2)):
                terms = dict(a)
                for v, c in b.items():
                    terms[v] = terms.get(v, 0) - c
                if terms:
                    model.add_eq(terms, 0)
            continue

        def bounded(terms):
            x = model.add_var(0, cap)
            t = dict(terms)
            t[x] = t.get(x, 0) - 1
            model.add_eq(t, 0)
            return x

        x1, x2, y1, y2 = bounded(b1), bounded(b2), bounded(g1), bounded(g2)
        u = model.add_var(0, 1)
        u_vars[sym] = u
        for a, b in ((x1, x2), (x2, x1), (y1, y2), (y2, y1)):
            model.add_le({a: 1, b: -1, u: -cap}, 0)
        model.add_ge({y1: 1, u: -1}, 0)
        model.add_ge({y2: 1, u: -1}, 0)
    reqs = [
        _ConnReq(sys1, [[v] for v in s1.edge_vars], s1.src_vars, cap),
        _ConnReq(sys2, [[v] for v in s2.edge_vars], s2.src_vars, cap),
        _ConnReq(
            sys1,
            [[v, w] for v, w in zip(s1.edge_vars, c1)],
            s1.src_vars,
            cap,
        ),
        _ConnReq(
            sys2,
            [[v, w] for v, w in zip(s2.edge_vars, c2)],
            s2.src_vars,
            cap,
        ),
    ]
    try:
        sol = _solve_connected(model, reqs)
    except SolverStall:
        return MatchResult(UNKNOWN)
    if sol is None:
        return MatchResult(UNSAT, certain=False)
    base1 = _extract(s1, sol)
    base2 = _extract(s2, sol)
    cyc1 = {e: sol[v] for e, v in zip(sys1.edges, c1) if sol[v]}
    cyc2 = {e: sol[v] for e, v in zip(sys2.edges, c2) if sol[v]}
    u_set = frozenset(sym for sym, v in u_vars.items() if sol[v])
    cert = PumpCertificate(base1, base2, cyc1, cyc2, u_set)
    return MatchResult(SAT, cert, None)


def realize_word(nfa, i, f, assignment):
    """Reconstruct a word of L(nfa, i, f) from a feasible flow (Eulerian path)."""
    mult = {e: m for e, m in assignment.edge_mult.items() if m}
    if not mult:
        if assignment.source in set(i) and assignment.source in set(f):
            return ()
        raise ValueError("zero flow but no shared initial/final state")
    remaining = {}
    for (p, a, q), m in mult.items():
        remaining.setdefault(p, []).append([a, q, m])
    stack = [(assignment.source, None)]
    rev = []
    while stack:
        v, sym = stack[-1]
        out = remaining.get(v, [])
        while out and out[-1][2] == 0:
            out.pop()
        if out:
            a, q, _m = out[-1]
            out[-1][2] -= 1
            stack.append((q, a))
        else:
            rev.append(sym)
            stack.pop()
    word = [a for a in reversed(rev) if a is not None]
    if len(word) != sum(mult.values()):
        raise ValueError("flow is not Eulerian-path decomposable")
    return tuple(word)
