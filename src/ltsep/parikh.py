"""Letter-count reasoning over NFAs via integer flow systems.

A word of L(nfa, i, f) corresponds to a multiset of transitions that forms an
Eulerian path from an initial to a final state; conversely any conserved,
source-connected edge multiplicity vector decomposes into such a path.  This
module encodes these flows as integer feasibility problems, decides
threshold-matching between two languages (fixed threshold, and in the limit
over all thresholds via pump certificates), and reconstructs witness words
from feasible flows.

flow_systems builds the flow systems of languages to be matched with each
other, and flow_system is the same call on one language.  A letter that
one side never reads counts 0 in every match, on every side, so each side
is trimmed, then every side is cut down to the letters all of them read
and trimmed again, until nothing changes.  When a side is empty then,
every match is UNSAT before any model is built.  Otherwise the cut-down
sides, which now read the same letters, are reduced: forward-bisimilar
states (same finality, same (letter, successor block) pairs) are merged,
then backward-bisimilar ones.  The cut and the reduction keep every match
of the sides, and word lengths, letter counts and the choice of endpoints
are properties of the language, so every match keeps its status and its
optimum on smaller models; on the pools of SAT encodings the reduction
folds the padding tails of side 2.

Connectivity of the used-edge subgraph to the chosen source has one
encoding, shared by every query (match_fixed, match_limit and the one-sided
feasible).  Each query asks it only of the flows that become words: both
paths of a match_fixed answer, and base plus cycle on each side of a
match_limit certificate, whose pumped flows all have that support.  It
starts from one row per state of each strongly connected component that
holds no initial state (_ConnReq.seed: flow inside the component needs
flow entering it), then adds cut rows lazily: solve, check the support of
the solution, and forbid disconnected supports until the support is
connected.  Each cut covers every state the source does not reach in the
components the disconnected support touches, so one round rules out all
the symmetric cycles of a component.  Both kinds of row hold for every
connected flow, so neither changes the feasible set or the optimum.
Integer feasibility itself is delegated to scipy's MILP interface, with
HiGHS's feasibility jump heuristic off: these models close at the root
node, and the heuristic only delays the root LP.  Returned solutions are
re-verified in exact integer arithmetic before use.  Infeasibility answers
are HiGHS's, in floating point, except for the matches that flow_systems
settles: there a side is empty, and the answer is exact with no model
built.

Every model bounds its variables by a box, which is also the big-M of its
threshold rows and cuts; HiGHS is far faster in a small box than in the
100,000 `cap`.  match_fixed first solves in the box _fixed_bound: at a
threshold d, a proven bound on the run length of some match when one
exists; for an exact match, a first guess, the larger state count.  An
UNSAT answer is final there at a given threshold; at d=None the match is
solved again at cap.  A SAT answer of cost z sets its own box: every
variable of a solution that costs at most z, less the four endpoint
selectors, is at most z - 4, so the optimum in the box z - 4 is the cap
optimum.  The answer is final when z - 4 fits the box it was found in;
otherwise one more solve in the box min(cap, z - 4) gives the final
answer.  feasible gets its box from its caller; match_limit solves at
cap, since there an UNSAT answer in a small box settles nothing.
"""

import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.optimize import milp, LinearConstraint, Bounds
from scipy.sparse.csgraph import connected_components

from .automata import Nfa, trim

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# the most solves one connectivity-cut loop makes before it reports a stall
MAX_CUT_ROUNDS = 200


@contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at descriptor 2 for the body.

    HiGHS prints some messages from C++ straight to descriptor 1, past
    sys.stdout, where they would break a JSON standard output.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


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
        # and infeasibility proofs are unaffected.  Feasibility jump is off
        # (see the module docstring); scipy passes the option on to HiGHS
        # unchanged but warns that it does not know it
        with warnings.catch_warnings(), _stdout_to_stderr():
            warnings.filterwarnings(
                "ignore", "Unrecognized options", RuntimeWarning
            )
            res = milp(
                c=np.ones(nvars),
                constraints=constraints,
                integrality=np.ones(nvars),
                bounds=Bounds(
                    np.array(self.lb, dtype=float), np.array(self.ub, dtype=float)
                ),
                options={"mip_heuristic_run_feasibility_jump": False},
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

    flow_systems trims the automaton to its useful part, cuts it down to the
    letters every language to be matched reads, and merges its forward and
    then its backward bisimilar states once each (it merges nothing when
    the cut empties one of the languages), so every model built on it has
    one variable per edge of that quotient; edges is the ordered transition
    list the multiplicity variables refer to.  One merge each way is not
    always the fixpoint: merging again folds further states of 4 of the
    1,306 nonempty sides of gen_random(50_000 + s, 3, 2, 0.35), s < 700.
    The letters, the strongly connected components, the letter bounds and
    each state's in-edges are computed once, on first use, and shared by
    every model built on the system: its box, its threshold rows, its
    seeded rows and its connectivity cuts.
    """

    nfa: Nfa
    i: frozenset
    f: frozenset
    edges: tuple

    @cached_property
    def letters(self):
        """The letters its edges read, sorted."""
        return tuple(sorted({a for _p, a, _q in self.edges}))

    @cached_property
    def components(self):
        """State -> label of its strongly connected component."""
        n = self.nfa.n_states
        src = [p for p, _a, _q in self.edges]
        dst = [q for _p, _a, q in self.edges]
        graph = sparse.csr_array((np.ones(len(self.edges)), (src, dst)), shape=(n, n))
        return connected_components(graph, connection="strong")[1].tolist()

    @cached_property
    def letter_bounds(self):
        """Letter -> upper bound on its count over the language, None when
        unbounded (_letter_bounds)."""
        return _letter_bounds(self)

    @cached_property
    def in_edges(self):
        """State -> indices into edges of the edges entering it."""
        into = [[] for _ in range(self.nfa.n_states)]
        for j, (_p, _a, q) in enumerate(self.edges):
            into[q].append(j)
        return into


def _coarsest(n, arcs, split):
    """The coarsest partition of range(n) that refines the labels split and
    in which the states of a block have the same set of (letter, block)
    pairs over their arcs; arcs[q] lists (letter, state) pairs.

    Returns each state's block.  Splitting a block keeps its number on its
    largest part; only the blocks of states with an arc to a renumbered
    state are checked again.
    """
    users = [[] for _ in range(n)]
    for q in range(n):
        for _a, r in arcs[q]:
            users[r].append(q)
    labels = {}
    block = [labels.setdefault(label, len(labels)) for label in split]
    members = [[] for _ in labels]
    for q, b in enumerate(block):
        members[b].append(q)
    dirty = set(range(len(members)))
    while dirty:
        b = dirty.pop()
        parts = {}
        for q in members[b]:
            parts.setdefault(frozenset((a, block[r]) for a, r in arcs[q]), []).append(q)
        if len(parts) == 1:
            continue
        kept, *moved = sorted(parts.values(), key=len, reverse=True)
        members[b] = kept
        for part in moved:
            for q in part:
                block[q] = len(members)
            members.append(part)
        for part in moved:
            for q in part:
                dirty.update(block[u] for u in users[q])
    return block


def _merge(nfa, i, f, backward):
    """Merge the forward (or backward) bisimilar states of a trimmed nfa.

    Forward: states start split by finality and share a block while their
    (letter, successor block) sets agree, so they accept the same words;
    backward is the same on the reversed automaton, split by initiality.
    Either way the quotient accepts the language of (nfa, i, f) and stays
    trimmed.  Each block is numbered by its least state, so an automaton
    with nothing to merge keeps its numbering.
    """
    n = nfa.n_states
    arcs = [[] for _ in range(n)]
    for (p, a, q) in nfa.transitions:
        if backward:
            arcs[q].append((a, p))
        else:
            arcs[p].append((a, q))
    ends = i if backward else f
    block = _coarsest(n, arcs, [q in ends for q in range(n)])
    number = {}
    for q in range(n):
        number.setdefault(block[q], len(number))
    if len(number) == n:
        return nfa, i, f
    to = [number[b] for b in block]
    trans = frozenset((to[p], a, to[q]) for (p, a, q) in nfa.transitions)
    merged = Nfa(len(number), tuple(nfa.alphabet), trans)
    return merged, frozenset(to[q] for q in i), frozenset(to[q] for q in f)


def _trimmed(nfa, i, f):
    nfa2, (i2,), (f2,) = trim(nfa, [set(i)], [set(f)])
    return nfa2, i2, f2


def _merged(nfa, i, f):
    """Merge the forward and then the backward bisimilar states of a
    trimmed nfa."""
    return _merge(*_merge(nfa, i, f, backward=False), backward=True)


def _system(nfa, i, f):
    return FlowSystem(nfa, i, f, tuple(sorted(nfa.transitions)))


def flow_system(nfa, i, f):
    """The flow system of L(nfa, i, f): trimmed, then its forward and then
    its backward bisimilar states merged."""
    return flow_systems((nfa, i, f))[0]


def flow_systems(*sides):
    """The flow systems of languages to be matched with each other, one
    per (nfa, i, f) of sides.

    A letter that one side never reads counts 0 there, so every match
    counts it 0 on every side and uses none of its edges.  So the sides are
    trimmed, then cut down to the edges whose letter every side reads and
    trimmed again, until nothing changes.  When that empties a side, every
    match is UNSAT before a model is built, and the cut-down systems are
    returned unmerged: match_fixed and match_limit answer them at once, in
    exact arithmetic.  Otherwise the cut-down sides, which all read the
    same letters, are merged into their flow systems.
    """
    sides = [_trimmed(*side) for side in sides]
    while all(i for _nfa, i, _f in sides):
        read = [{a for _p, a, _q in nfa.transitions} for nfa, _i, _f in sides]
        shared = set.intersection(*read)
        if all(letters == shared for letters in read):
            return [_system(*_merged(*side)) for side in sides]
        sides = [
            _trimmed(
                Nfa(nfa.n_states, nfa.alphabet,
                    frozenset(e for e in nfa.transitions if e[1] in shared)),
                i, f,
            )
            for nfa, i, f in sides
        ]
    return [_system(*side) for side in sides]


@dataclass
class FlowAssignment:
    """A realizable flow: edge multiplicities plus the initial state its
    word starts from."""

    edge_mult: dict
    source: int


@dataclass
class _SideVars:
    """One side's variables in a model: one per edge of system and, for a
    path, one selector per initial and per final state (none for a
    circulation)."""

    system: FlowSystem
    edge_vars: list
    src_vars: dict
    snk_vars: dict

    def __post_init__(self):
        self.by_letter = {}  # letter -> edge variables carrying it, in edge order
        for (_p, a, _q), v in zip(self.system.edges, self.edge_vars):
            self.by_letter.setdefault(a, []).append(v)

    def count_terms(self, sym):
        return {v: 1 for v in self.by_letter.get(sym, ())}

    def edge_mult(self, sol):
        """Edge -> its value in sol, for every edge sol uses."""
        return {e: sol[v] for e, v in zip(self.system.edges, self.edge_vars) if sol[v]}

    def conn_req(self, cap, *cycles):
        """The requirement that this side's flow, plus the given circulations
        on the same system edge by edge, be connected to its source."""
        groups = [list(vs) for vs in zip(self.edge_vars, *(c.edge_vars for c in cycles))]
        return _ConnReq(self.system, groups, self.src_vars, cap)


def _tied(model, terms, cap):
    """A new variable in [0, cap] tied by equality to the sum of terms."""
    x = model.add_var(0, cap)
    model.add_eq({**terms, x: -1}, 0)
    return x


def _add_equal(model, terms1, terms2):
    """The row sum(terms1) = sum(terms2); the two hold different variables."""
    model.add_eq({**terms1, **{v: -c for v, c in terms2.items()}}, 0)


def _add_close(model, x, y, flag, big):
    """The rows |x - y| <= big * flag."""
    model.add_le({x: 1, y: -1, flag: -big}, 0)
    model.add_le({y: 1, x: -1, flag: -big}, 0)


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
    model.add_eq({v: 1 for v in src_vars.values()}, 1)
    model.add_eq({v: 1 for v in snk_vars.values()}, 1)
    for q, terms in enumerate(_conservation(system, edge_vars)):
        if q in src_vars:
            terms[src_vars[q]] = -1
        if q in snk_vars:
            terms[snk_vars[q]] = 1
        model.add_eq(terms, 0)
    return _SideVars(system, edge_vars, src_vars, snk_vars)


def _add_circulation(model, system, cap):
    """Conserved flow with no endpoints (a disjoint union of cycles)."""
    side = _SideVars(system, [model.add_var(0, cap) for _ in system.edges], {}, {})
    for terms in _conservation(system, side.edge_vars):
        if terms:
            model.add_eq(terms, 0)
    return side


@dataclass
class _ConnReq:
    """One support-connectivity requirement checked after each solve."""

    system: FlowSystem
    var_groups: list  # per edge: list of variables whose sum is the flow value
    src_vars: dict
    cap: int

    def violation(self, sol):
        """Return the set C to cut, or None when the support is connected.

        C holds every support state the source does not reach, widened to
        every state the source does not reach in the strongly connected
        components of those states.  A cut is valid for any set, and this
        solution still breaks the widened one: no used edge enters C, since
        a used edge from a reached state leads to a reached state.  One
        wide cut forbids at once the many symmetric cycles of a component
        that cuts around single states would forbid one round at a time.
        """
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
        if not unreached:
            return None
        comp = self.system.components
        touched = {comp[q] for q in unreached}
        return {q for q, c in enumerate(comp) if c in touched and q not in seen}

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
        comp = self.system.components
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
        edges = self.system.edges
        into = sorted(j for q in comp for j in self.system.in_edges[q])
        entering = [
            v for j in into if edges[j][0] not in comp for v in self.var_groups[j]
        ]
        srcs = [v for q, v in self.src_vars.items() if q in comp]
        for j in into:
            if edges[j][0] in comp:
                grp = self.var_groups[j]
                big = self.cap * len(grp)
                terms = {}
                for v in grp:
                    terms[v] = terms.get(v, 0) + 1
                for v in entering:
                    terms[v] = terms.get(v, 0) - big
                for v in srcs:
                    terms[v] = terms.get(v, 0) - big
                model.add_le(terms, 0)


def _solve_connected(model, reqs):
    """Seed each requirement's rows, then solve, adding connectivity cuts
    until every requirement holds."""
    for req in reqs:
        req.seed(model)
    for _ in range(MAX_CUT_ROUNDS):
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
    src = next(q for q, v in side.src_vars.items() if sol[v] > 0)
    return FlowAssignment(side.edge_mult(sol), src)


@dataclass
class FeasResult:
    status: str
    assignment: object = None


def feasible(system, counts, cap=100_000):
    """Search for a flow of system whose letter counts are exactly counts
    (symbol -> count; a letter not in counts counts 0).

    One equality row per letter on the flow of _add_flow, solved under the
    connectivity rows and cuts every match uses.
    """
    if not system.i or not system.f:
        # trimmed-empty language: feasible only never
        return FeasResult(UNSAT)
    model = MipModel()
    side = _add_flow(model, system, cap)
    for sym in dict.fromkeys((*system.letters, *counts)):
        model.add_eq(side.count_terms(sym), counts.get(sym, 0))
    try:
        sol = _solve_connected(model, [side.conn_req(cap)])
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
    comp = system.components
    bounds = {a: 0 for a in system.letters}
    for (p, a, q) in system.edges:
        if comp[p] == comp[q]:
            bounds[a] = None
        elif bounds[a] is not None:
            bounds[a] += 1
    return bounds


def _fixed_bound(sys1, sys2, letters, d):
    """The box in which match_fixed first solves.

    At a threshold d the box bounds the run length of some match on each
    side, so an UNSAT answer inside it is final.  Take a match and one
    side's run.  For each letter of letters, mark its occurrences if it
    occurs fewer than d times, else mark d of them: at most min(d, m) marks
    for a letter whose count is at most m on this side (letter_bounds), so
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
    only at 77t letters.  There the box, the larger state count, is a
    first guess, and only a SAT answer can be final in it.

    A SAT answer of cost z (the variable sum: every variable is
    nonnegative with cost 1) fixes the box in which the optimum lies, for
    any d.  Every solution sets exactly four endpoint selectors, so a
    solution of cost at most z has every other variable at most z - 4.  It
    is a connected flow inside the box z - 4, so it satisfies that box's
    seed rows and cuts, whose big-M is the box.  The optimum in the box
    z - 4, or in any larger box, is therefore the optimum at cap: the
    answer is final when z - 4 is at most the box it was found in, and
    otherwise one solve in the box z - 4 gives the final answer.
    """
    if d is None:
        return max(sys1.nfa.n_states, sys2.nfa.n_states)
    box = 0
    for system in (sys1, sys2):
        bounds = system.letter_bounds
        marks = 0
        for sym in letters:
            if sym in bounds:
                marks += d if bounds[sym] is None else min(d, bounds[sym])
        box = max(box, system.nfa.n_states * (marks + 1))
    return box


def _match_model(sys1, sys2, letters, d, box):
    """The match_fixed model with every variable bound, count variable,
    big-M row and cut coefficient set to box.

    Returns the model, both sides' variables and the connectivity
    requirements.
    """
    model = MipModel()
    s1 = _add_flow(model, sys1, box)
    s2 = _add_flow(model, sys2, box)
    for sym in letters:
        t1 = s1.count_terms(sym)
        t2 = s2.count_terms(sym)
        equal = d is None
        if not equal:
            # the both->=d branch is unreachable when a side stays below d,
            # as a side that never reads sym does
            m1 = sys1.letter_bounds.get(sym, 0)
            m2 = sys2.letter_bounds.get(sym, 0)
            equal = (m1 is not None and m1 < d) or (m2 is not None and m2 < d)
        if equal:
            _add_equal(model, t1, t2)
            continue
        x1, x2 = _tied(model, t1, box), _tied(model, t2, box)
        dif = model.add_var(0, 1)
        _add_close(model, x1, x2, dif, box)
        model.add_ge({x1: 1, dif: -d}, 0)
        model.add_ge({x2: 1, dif: -d}, 0)
    return model, s1, s2, [s1.conn_req(box), s2.conn_req(box)]


def match_fixed(sys1, sys2, letters, d, cap=100_000):
    """Find letter-count vectors of the two languages equal up to threshold d.

    d=None asks for exactly equal vectors.  Letters outside a side's alphabet
    count as the constant 0 on that side.

    The match is first solved in the box B = min(cap, _fixed_bound), where
    the MILP is far easier than in the cap box.  An UNSAT answer there is
    final at a given d; at d=None, or after a stall, the match is solved
    again at cap.  A SAT answer of cost z is final when z - 4 <= B;
    otherwise the match is solved once more in the box min(cap, z - 4),
    whose optimum is the cap optimum (see _fixed_bound).  A stall after a
    SAT answer keeps it: its flows are a match, perhaps not the cheapest.
    """
    if not sys1.i or not sys1.f or not sys2.i or not sys2.f:
        return MatchResult(UNSAT)
    letters = list(letters)
    fixed = _fixed_bound(sys1, sys2, letters, d)
    box = min(cap, fixed)
    res = MatchResult(UNKNOWN)
    while True:
        model, s1, s2, reqs = _match_model(sys1, sys2, letters, d, box)
        try:
            sol = _solve_connected(model, reqs)
        except SolverStall:
            if res.status == SAT:
                return res
            res, nxt = MatchResult(UNKNOWN), cap
        else:
            if sol is None:
                res = MatchResult(UNSAT, certain=d is None or fixed <= box)
                nxt = cap if d is None else box
            else:
                res = MatchResult(SAT, _extract(s1, sol), _extract(s2, sol))
                nxt = min(cap, sum(sol) - 4)
        if nxt <= box:
            return res
        box = nxt


@dataclass
class PumpCertificate:
    """Base flows plus circulations matching at every counting threshold.

    Off a set U of letters, base counts and cycle counts agree between the
    two sides; on U both cycles have count >= 1.  Hence base + t*cycle on
    each side realizes a matching pair at threshold t for every t.
    """

    base1: FlowAssignment
    base2: FlowAssignment
    cycle1: dict
    cycle2: dict

    def pumped(self, which, t):
        """The flow base + t*cycle for one side, as a FlowAssignment."""
        base = self.base1 if which == 1 else self.base2
        cyc = self.cycle1 if which == 1 else self.cycle2
        mult = dict(base.edge_mult)
        for e, m in cyc.items():
            mult[e] = mult.get(e, 0) + t * m
        return FlowAssignment(mult, base.source)


def match_limit(sys1, sys2, letters, cap=100_000):
    """Find a PumpCertificate: matching vectors at every threshold, or report none.

    Only base plus cycle must be connected on each side, not the base on
    its own: every flow that becomes a word is base + t * cycle with t >= 1
    (PumpCertificate.pumped), whose support is the support of base plus
    cycle, so those two requirements are exactly the ones every pumped
    flow needs to spell a word.
    """
    if not sys1.i or not sys1.f or not sys2.i or not sys2.f:
        return MatchResult(UNSAT)
    model = MipModel()
    s1 = _add_flow(model, sys1, cap)
    s2 = _add_flow(model, sys2, cap)
    c1 = _add_circulation(model, sys1, cap)
    c2 = _add_circulation(model, sys2, cap)
    for sym in letters:
        b1, b2 = s1.count_terms(sym), s2.count_terms(sym)
        g1, g2 = c1.count_terms(sym), c2.count_terms(sym)
        if not g1 or not g2:
            # some side cannot grow this letter: it can never join U.  A
            # letter's cycle terms are empty exactly when its base terms are
            if b1 or b2:
                _add_equal(model, b1, b2)
                _add_equal(model, g1, g2)
            continue
        x1, x2, y1, y2 = (_tied(model, t, cap) for t in (b1, b2, g1, g2))
        u = model.add_var(0, 1)
        _add_close(model, x1, x2, u, cap)
        _add_close(model, y1, y2, u, cap)
        model.add_ge({y1: 1, u: -1}, 0)
        model.add_ge({y2: 1, u: -1}, 0)
    try:
        sol = _solve_connected(model, [s1.conn_req(cap, c1), s2.conn_req(cap, c2)])
    except SolverStall:
        return MatchResult(UNKNOWN)
    if sol is None:
        return MatchResult(UNSAT, certain=False)
    cert = PumpCertificate(
        _extract(s1, sol), _extract(s2, sol), c1.edge_mult(sol), c2.edge_mult(sol)
    )
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
