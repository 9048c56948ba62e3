"""Per-layer spans for the traced benchmark run.

`Tracer.install` replaces module-level functions of ltsep at the places the
decision engine looks them up, with wrappers that time each call and read
sizes off its arguments and results; `Tracer.restore` puts every original
back.  Nothing under `src/` is changed.  A span's self time is its duration
minus the time of the wrapped calls it made.
"""

import time
from collections import defaultdict

from ltsep import monoid, parikh, reduction, separ
from ltsep.reduction import SyncBudgetError

MATCH_SPANS = ("parikh.match_fixed", "parikh.match_limit", "parikh.feasible")


def _reduced_sizes(tr, args, red):
    tr.count["reduction.reduced_letters"] += len(red.nfa.alphabet)
    tr.count["reduction.reduced_states"] += red.nfa.n_states
    tr.count["reduction.reduced_transitions"] += len(red.nfa.transitions)
    tr.count["reduction.w_letters"] += sum(1 for b in red.catalog.values() if b.kind == "w")


def _pool_sizes(tr, args, red):
    tr.count["reduction.pool_letters"] += len(red.nfa.alphabet)


def _annotation_sizes(tr, args, ann):
    tr.count["profiles.annotated_states"] += ann.nfa.n_states
    tr.count["profiles.annotated_letters"] += len(ann.nfa.alphabet)


def _signature_count(tr, args, sigs):
    tr.count["profiles.signatures"] += len(sigs)


def _monoid_size(tr, args, m):
    tr.count["monoid.elements"] += m.size


def _product_size(tr, args, res):
    tr.count["automata.product_states"] += res[0].n_states


def _model_letters(tr, args, res):
    tr.count["parikh.model_letters"] += len(args[2])
    tr.count["parikh.match_calls"] += 1


def _model_size(tr, args, res):
    model = args[0]
    tr.count["parikh.milp_vars"] += len(model.lb)
    tr.count["parikh.milp_rows"] += len(model.rows)
    tr.count["parikh.milp_nnz"] += sum(
        1 for terms, _lo, _hi in model.rows for c in terms.values() if c
    )
    if tr.parents() & {"parikh.match_fixed", "parikh.match_limit"}:
        tr.count["parikh.match_solves"] += 1


def _sync_error(tr, exc):
    if isinstance(exc, SyncBudgetError):
        tr.count["reduction.sync_budget_exceeded"] += 1


# (owner, attribute, span name, hook on the result, hook on an exception)
TARGETS = (
    (separ, "build_reduced", "reduction.build_reduced", _reduced_sizes, None),
    (separ, "build_reduced_pool", "reduction.pool", _pool_sizes, None),
    (separ, "annotate", "profiles.annotate", _annotation_sizes, None),
    (separ, "language_signatures", "profiles.language_signatures", _signature_count, None),
    (separ, "transition_monoid", "monoid.transition_monoid", _monoid_size, None),
    (monoid, "transition_monoid", "monoid.transition_monoid", _monoid_size, None),
    (separ, "product", "automata.product", _product_size, None),
    (separ, "decode_pattern", "reduction.decode", None, None),
    (separ, "pump_pattern", "reduction.decode", None, None),
    (separ, "_sig_probe", "separ.sig_probe", None, None),
    (separ, "_fallback", "separ.fallback", None, None),
    (separ, "separator_membership", "separ.membership", None, None),
    (parikh, "match_fixed", "parikh.match_fixed", _model_letters, None),
    (parikh, "match_limit", "parikh.match_limit", _model_letters, None),
    (parikh, "feasible", "parikh.feasible", None, None),
    (parikh, "flow_system", "parikh.flow_system", None, None),
    (parikh, "realize_word", "parikh.realize_word", None, None),
    (reduction, "sync_sets", "reduction.sync_sets", None, _sync_error),
    (reduction, "common_mid", "reduction.common_mid", None, None),
    (parikh.MipModel, "solve", "parikh.milp_solve", _model_size, None),
)

# the per-layer metrics of one traced pass: name -> unit
LAYER_METRICS = {
    "reduction.build_reduced_s": "s",
    "reduction.common_mid_calls": "count",
    "reduction.common_mid_s": "s",
    "reduction.sync_budget_exceeded": "count",
    "reduction.reduced_letters": "count",
    "reduction.reduced_states": "count",
    "reduction.reduced_transitions": "count",
    "reduction.w_letter_share": "ratio",
    "reduction.pool_s": "s",
    "reduction.pool_letters": "count",
    "reduction.decode_s": "s",
    "parikh.model_build_s": "s",
    "parikh.model_letters": "count",
    "parikh.milp_solve_s": "s",
    "parikh.milp_solve_calls": "count",
    "parikh.match_calls": "count",
    "parikh.cut_rounds": "solves/match",
    "parikh.milp_vars": "count",
    "parikh.milp_rows": "count",
    "parikh.milp_nnz": "count",
    "parikh.flow_system_s": "s",
    "parikh.realize_word_s": "s",
    "separ.sig_probe_s": "s",
    "separ.sig_probe_calls": "count",
    "profiles.language_signatures_s": "s",
    "profiles.signatures": "count",
    "separ.fallback_s": "s",
    "separ.membership_s": "s",
    "separ.membership_calls": "count",
    "profiles.annotate_s": "s",
    "profiles.annotated_states": "count",
    "profiles.annotated_letters": "count",
    "automata.product_s": "s",
    "automata.product_states": "count",
    "monoid.transition_monoid_s": "s",
    "monoid.elements": "count",
}

# size counters that must repeat exactly between traced passes and runs
SIZE_COUNTERS = (
    "reduction.common_mid_calls",
    "reduction.reduced_letters",
    "parikh.milp_vars",
    "parikh.milp_rows",
    "parikh.milp_nnz",
    "parikh.milp_solve_calls",
    "parikh.match_calls",
    "profiles.annotated_states",
)


class Tracer:
    """Wraps the layer entry points; collects totals until `take` is called."""

    def __init__(self):
        self._saved = []
        self._stack = []  # frames of the wrapped calls in progress
        self.reset()

    def reset(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)

    def parents(self):
        return {frame[0] for frame in self._stack[:-1]}

    def _wrap(self, span, fn, on_result, on_error):
        def wrapper(*args, **kwargs):
            # [span name, time in wrapped children, time in the hooks of
            # this span's descendants]; hook time is the tracer's own work,
            # so it is taken out of every enclosing span
            frame = [span, 0.0, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                dt = time.perf_counter() - t0 - frame[2]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                    self._stack[-1][2] += frame[2]
                self.time[span] += dt
                self.self_time[span] += dt - frame[1]
                self.calls[span] += 1
            if on_result is not None:
                t0 = time.perf_counter()
                self._stack.append(frame)
                try:
                    on_result(self, args, res)
                finally:
                    self._stack.pop()
                    if self._stack:
                        self._stack[-1][2] += time.perf_counter() - t0
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span, on_result, on_error in TARGETS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(span, orig, on_result, on_error))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def take(self):
        """The per-layer metrics since the last `take`, then reset."""
        t, c, n = self.time, self.count, self.calls
        model_self = sum(self.self_time[s] for s in MATCH_SPANS)
        letters = c["reduction.reduced_letters"]
        out = {
            "reduction.build_reduced_s": t["reduction.build_reduced"],
            "reduction.common_mid_calls": n["reduction.common_mid"],
            "reduction.common_mid_s": t["reduction.common_mid"],
            "reduction.sync_budget_exceeded": c["reduction.sync_budget_exceeded"],
            "reduction.reduced_letters": letters,
            "reduction.reduced_states": c["reduction.reduced_states"],
            "reduction.reduced_transitions": c["reduction.reduced_transitions"],
            "reduction.w_letter_share": c["reduction.w_letters"] / letters if letters else 0.0,
            "reduction.pool_s": t["reduction.pool"],
            "reduction.pool_letters": c["reduction.pool_letters"],
            "reduction.decode_s": t["reduction.decode"],
            "parikh.model_build_s": model_self,
            "parikh.model_letters": c["parikh.model_letters"],
            "parikh.milp_solve_s": t["parikh.milp_solve"],
            "parikh.milp_solve_calls": n["parikh.milp_solve"],
            "parikh.match_calls": c["parikh.match_calls"],
            "parikh.cut_rounds": (
                c["parikh.match_solves"] / c["parikh.match_calls"]
                if c["parikh.match_calls"] else 0.0
            ),
            "parikh.milp_vars": c["parikh.milp_vars"],
            "parikh.milp_rows": c["parikh.milp_rows"],
            "parikh.milp_nnz": c["parikh.milp_nnz"],
            "parikh.flow_system_s": t["parikh.flow_system"],
            "parikh.realize_word_s": t["parikh.realize_word"],
            "separ.sig_probe_s": t["separ.sig_probe"],
            "separ.sig_probe_calls": n["separ.sig_probe"],
            "profiles.language_signatures_s": t["profiles.language_signatures"],
            "profiles.signatures": c["profiles.signatures"],
            "separ.fallback_s": t["separ.fallback"],
            "separ.membership_s": t["separ.membership"],
            "separ.membership_calls": n["separ.membership"],
            "profiles.annotate_s": t["profiles.annotate"],
            "profiles.annotated_states": c["profiles.annotated_states"],
            "profiles.annotated_letters": c["profiles.annotated_letters"],
            "automata.product_s": t["automata.product"],
            "automata.product_states": c["automata.product_states"],
            "monoid.transition_monoid_s": t["monoid.transition_monoid"],
            "monoid.elements": c["monoid.elements"],
        }
        self.reset()
        return out
