"""Core NFA machinery: representation, parsing, products, reachability.

Initial and final state sets are kept outside the automaton, so a single
transition structure can carry several languages L(nfa, I, F).
"""

from collections import deque
from dataclasses import dataclass


class SpecFormatError(ValueError):
    """Raised on malformed spec documents; message names the line."""


@dataclass(frozen=True)
class Nfa:
    """An NFA without designated initial/final states.

    States are dense integers 0..n_states-1, alphabet symbols are strings,
    transitions are (state, symbol, state) triples.  No epsilon transitions.
    """

    n_states: int
    alphabet: tuple
    transitions: frozenset

    def __post_init__(self):
        if self.n_states < 0:
            raise ValueError("negative state count")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        syms = set(self.alphabet)
        for (p, a, q) in self.transitions:
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise ValueError("transition references unknown state: %r" % ((p, a, q),))
            if a not in syms:
                raise ValueError("transition references unknown symbol: %r" % ((p, a, q),))

    def delta(self):
        """Map (state, symbol) -> set of successor states (cached)."""
        d = getattr(self, "_delta", None)
        if d is None:
            d = {}
            for (p, a, q) in self.transitions:
                d.setdefault((p, a), set()).add(q)
            object.__setattr__(self, "_delta", d)
        return d

    def out(self):
        """Map state -> sorted tuple of its (symbol, successor) pairs
        (cached); states without transitions are absent."""
        o = getattr(self, "_out", None)
        if o is None:
            lists = {}
            for (p, a, q) in sorted(self.transitions):
                lists.setdefault(p, []).append((a, q))
            o = {p: tuple(pairs) for p, pairs in lists.items()}
            object.__setattr__(self, "_out", o)
        return o

    def step(self, states, sym):
        d = self.delta()
        out = set()
        for q in states:
            out.update(d.get((q, sym), ()))
        return out


@dataclass(frozen=True)
class LangSpec:
    """One shared NFA with two (initial, final) pairs defining L1 and L2."""

    nfa: Nfa
    i1: frozenset
    f1: frozenset
    i2: frozenset
    f2: frozenset

    def __post_init__(self):
        for name in ("i1", "f1", "i2", "f2"):
            s = getattr(self, name)
            if not isinstance(s, frozenset):
                object.__setattr__(self, name, frozenset(s))
                s = getattr(self, name)
            if not all(0 <= q < self.nfa.n_states for q in s):
                raise ValueError("%s not a subset of the states" % name)


def accepts(nfa, i, f, w):
    """Whether w is in L(nfa, i, f), by subset propagation."""
    syms = set(nfa.alphabet)
    cur = set(i)
    for a in w:
        if a not in syms:
            raise ValueError("unknown symbol %r" % (a,))
        cur = nfa.step(cur, a)
        if not cur:
            return False
    return bool(cur & set(f))


def product(a, b):
    """Cartesian product of two NFAs over the same alphabet.

    Returns (nfa, pair_index) where pair_index maps (p, q) -> product state
    p * b.n_states + q.  The decision engine does not build it: it searches
    L1 ∩ L2 over reachable pairs only (shortest_common_word).
    """
    if tuple(a.alphabet) != tuple(b.alphabet):
        raise ValueError("alphabet mismatch in product")
    pair_index = {}
    for p in range(a.n_states):
        for q in range(b.n_states):
            pair_index[(p, q)] = len(pair_index)
    da, db = a.delta(), b.delta()
    trans = set()
    for (p, sym), ps in da.items():
        qs_by = db
        for q in range(b.n_states):
            succ_b = qs_by.get((q, sym))
            if not succ_b:
                continue
            src = pair_index[(p, q)]
            for p2 in ps:
                for q2 in succ_b:
                    trans.add((src, sym, pair_index[(p2, q2)]))
    nfa = Nfa(len(pair_index), tuple(a.alphabet), frozenset(trans))
    return nfa, pair_index


def closure(seeds, succ):
    """The states reachable from seeds, seeds included, depth first;
    succ maps a state to its successors."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for q in succ.get(stack.pop(), ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def reachable(nfa, i):
    """Forward closure of the state set i."""
    succ = {}
    for (p, _a, q) in nfa.transitions:
        succ.setdefault(p, set()).add(q)
    return closure(i, succ)


def coreachable(nfa, f):
    """Backward closure of the state set f."""
    pred = {}
    for (p, _a, q) in nfa.transitions:
        pred.setdefault(q, set()).add(p)
    return closure(f, pred)


def _bfs_word(i, f, succ):
    """A shortest word from the state set i to a state in f, or None.

    succ(p) lists p's (letter, successor) pairs in sorted order; states are
    met breadth first in that order from i, iterated as a copied set.
    """
    i = set(i)
    if not i.isdisjoint(f):
        return ()
    back = {q: None for q in i}
    queue = deque(i)
    while queue:
        p = queue.popleft()
        for (a, q) in succ(p):
            if q not in back:
                back[q] = (p, a)
                if q in f:
                    word = []
                    while back[q] is not None:
                        p2, a2 = back[q]
                        word.append(a2)
                        q = p2
                    word.reverse()
                    return tuple(word)
                queue.append(q)
    return None


def shortest_word(nfa, i, f):
    """A shortest word of L(nfa, i, f), or None if the language is empty."""
    out = nfa.out()
    return _bfs_word(i, set(f), lambda p: out.get(p, ()))


def shortest_common_word(nfa, i1, f1, i2, f2):
    """A shortest word of L(nfa, i1, f1) ∩ L(nfa, i2, f2), or None.

    Only the state pairs reachable from i1 × i2 are built, as the search
    meets them.  A pair (p, q) is numbered p * n + q as in product, so the
    word is the one shortest_word returns on product(nfa, nfa).
    """
    n = nfa.n_states
    delta = nfa.delta()

    def succ(x):
        p, q = divmod(x, n)
        return sorted(
            (a, p2 * n + q2)
            for a in nfa.alphabet
            for p2 in delta.get((p, a), ())
            for q2 in delta.get((q, a), ())
        )

    return _bfs_word(
        {p * n + q for p in i1 for q in i2},
        {p * n + q for p in f1 for q in f2},
        succ,
    )


def trim(nfa, isets, fsets):
    """Drop states that are not both reachable and co-reachable.

    isets/fsets are lists of state sets; a state is useful if reachable from
    the union of isets and co-reachable to the union of fsets.  Returns
    (nfa', mapped isets, mapped fsets); transitions between useful states only.
    """
    i_all = set().union(*isets) if isets else set()
    f_all = set().union(*fsets) if fsets else set()
    useful = reachable(nfa, i_all) & coreachable(nfa, f_all)
    order = sorted(useful)
    remap = {q: j for j, q in enumerate(order)}
    trans = frozenset(
        (remap[p], a, remap[q])
        for (p, a, q) in nfa.transitions
        if p in useful and q in useful
    )
    nfa2 = Nfa(len(order), tuple(nfa.alphabet), trans)
    new_i = [frozenset(remap[q] for q in s if q in useful) for s in isets]
    new_f = [frozenset(remap[q] for q in s if q in useful) for s in fsets]
    return nfa2, new_i, new_f


def parse_spec(text):
    """Parse the line-oriented spec format into a LangSpec.

    Format: `alphabet: a b c`, `states: N`, repeated `trans: p sym q`,
    then sections I1: F1: I2: F2: with space-separated state ids.  Every
    key but trans appears once.  `#` starts a comment.
    """
    alphabet = None
    n_states = None
    transitions = []
    sets = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecFormatError("line %d: expected 'key: ...', got %r" % (lineno, raw))
        key, _, rest = line.partition(":")
        key = key.strip()
        fields = rest.split()
        if key in seen:
            raise SpecFormatError("line %d: duplicate %s" % (lineno, key))
        if key != "trans":
            seen.add(key)
        if key == "alphabet":
            if len(set(fields)) != len(fields):
                raise SpecFormatError("line %d: duplicate symbols" % lineno)
            alphabet = tuple(fields)
        elif key == "states":
            if len(fields) != 1 or not fields[0].isdigit():
                raise SpecFormatError("line %d: states wants one integer" % lineno)
            n_states = int(fields[0])
        elif key == "trans":
            if alphabet is None or n_states is None:
                raise SpecFormatError("line %d: trans before alphabet/states" % lineno)
            if len(fields) != 3:
                raise SpecFormatError("line %d: trans wants 'p sym q'" % lineno)
            ps, sym, qs = fields
            if not ps.isdigit() or not qs.isdigit():
                raise SpecFormatError("line %d: bad state id" % lineno)
            p, q = int(ps), int(qs)
            if p >= n_states or q >= n_states:
                raise SpecFormatError("line %d: state id out of range" % lineno)
            if sym not in alphabet:
                raise SpecFormatError("line %d: unknown symbol %r" % (lineno, sym))
            transitions.append((p, sym, q))
        elif key in ("I1", "F1", "I2", "F2"):
            if n_states is None:
                raise SpecFormatError("line %d: %s before states" % (lineno, key))
            try:
                ids = [int(x) for x in fields]
            except ValueError:
                raise SpecFormatError("line %d: bad state id in %s" % (lineno, key))
            if any(q >= n_states or q < 0 for q in ids):
                raise SpecFormatError("line %d: state id out of range in %s" % (lineno, key))
            sets[key] = frozenset(ids)
        else:
            raise SpecFormatError("line %d: unknown key %r" % (lineno, key))
    if alphabet is None:
        raise SpecFormatError("missing alphabet section")
    if n_states is None:
        raise SpecFormatError("missing states section")
    for key in ("I1", "F1", "I2", "F2"):
        if key not in sets:
            raise SpecFormatError("missing section %s" % key)
    nfa = Nfa(n_states, alphabet, frozenset(transitions))
    return LangSpec(nfa, sets["I1"], sets["F1"], sets["I2"], sets["F2"])


def serialize_spec(spec):
    """Render a LangSpec in the spec format; round-trips with parse_spec.

    Raises ValueError on a letter the format cannot hold: an empty one, or
    one with whitespace or '#'.
    """
    for a in spec.nfa.alphabet:
        if a.split() != [a] or "#" in a:
            raise ValueError("letter %r cannot be written in the spec format" % (a,))
    lines = []
    lines.append("alphabet: " + " ".join(spec.nfa.alphabet))
    lines.append("states: %d" % spec.nfa.n_states)
    for (p, a, q) in sorted(spec.nfa.transitions):
        lines.append("trans: %d %s %d" % (p, a, q))
    for key, s in (("I1", spec.i1), ("F1", spec.f1), ("I2", spec.i2), ("F2", spec.f2)):
        lines.append("%s: %s" % (key, " ".join(str(q) for q in sorted(s))))
    return "\n".join(lines) + "\n"


def dot_export(nfa, isets, fsets):
    """DOT rendering with initial/final annotations per language index.

    Edge labels list the letters of an edge joined by ',', a '\\' or ','
    inside a letter escaped with '\\' as Profile.symbol does; the label
    then has its '\\' and '"' escaped for DOT's quoted strings.
    """
    lines = ["digraph nfa {", "  rankdir=LR;"]
    marks = {}
    for idx, s in enumerate(isets, start=1):
        for q in s:
            marks.setdefault(q, []).append("I%d" % idx)
    for idx, s in enumerate(fsets, start=1):
        for q in s:
            marks.setdefault(q, []).append("F%d" % idx)
    for q in range(nfa.n_states):
        tag = ",".join(marks.get(q, []))
        label = str(q) if not tag else "%d\\n%s" % (q, tag)
        shape = "doublecircle" if any(m.startswith("F") for m in marks.get(q, [])) else "circle"
        lines.append('  n%d [label="%s", shape=%s];' % (q, label, shape))
    grouped = {}
    for (p, a, q) in sorted(nfa.transitions):
        grouped.setdefault((p, q), []).append(a)
    for (p, q), syms in sorted(grouped.items()):
        label = ",".join(a.replace("\\", "\\\\").replace(",", "\\,") for a in syms)
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append('  n%d -> n%d [label="%s"];' % (p, q, label))
    lines.append("}")
    return "\n".join(lines) + "\n"
