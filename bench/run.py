"""Closed-loop benchmark of ltsep: time to verdict on a seeded corpus.

    python3 bench/run.py --workload sat-cnf --seed 1 --seconds 30 --trace 0

One client, one thread: each operation starts when the previous one has
returned.  With --trace 0 the run starts COPIES worker processes one after
another.  Worker j replays its own isomorphic copy of the workload's corpus
in full passes for its share of --seconds (always at least one pass), under
its own fixed hash seed, then checks its verdicts against independent
references outside the timed loop.  The run pools the workers' latencies
into the end-to-end metrics, and takes the median set-up time over the
workers and SETUP_ONLY further cold starts.  With --trace 1 a single worker
runs an untraced and two traced passes, then more pairs while time allows,
and reports per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object.  See bench/README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# per workload: the digest and statuses of the first pass, as measured at the
# commit that added the benchmark
RECORD = HERE / "record.json"

WORKLOADS = ("sat-cnf", "reduce-unary", "fixed-direct")
# isomorphic copies per run, each replayed by its own worker process
COPIES = 2
# cold starts per run that only set up, so that setup_s is a median over
# COPIES + SETUP_ONLY samples
SETUP_ONLY = 3
# seconds a worker may take beyond its share of --seconds, for set-up and
# the reference checks after the timed loop
WORKER_MARGIN = 120
# lines of failure detail printed per kind
DETAIL_LINES = 5


# ---------------------------------------------------------------- worker side


class Tally:
    """Latency samples and outcomes of one worker."""

    def __init__(self):
        self.decide = []  # seconds per decide operation
        self.member = []  # seconds per membership query
        self.first = {}  # (item, op) -> Verdict of the first pass
        self.paths = {}  # (item, op) -> deciding path of the first pass
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.mismatches = []
        self.member_checked = 0

    def fail(self, what):
        self.failed += 1
        self.errors.append(what)


def run_pass(wl, items, tally):
    """Replay the corpus once, recording latencies and outcomes."""
    sep = wl.separ
    for idx, item in enumerate(items):
        for op in item.ops:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                verdict = wl.OPS[op](wl.parse_spec(item.text))
            except Exception as exc:
                verdict = exc
            tally.decide.append(time.perf_counter() - t0)
            slot = (idx, op)
            status = _status(verdict)
            if slot not in tally.first:
                tally.first[slot] = verdict
                if status != "error":
                    tally.paths[slot] = wl.path_of(verdict)
            elif status != _status(tally.first[slot]):
                tally.mismatches.append(
                    "%s/%s: %s on a later pass, %s on the first"
                    % (item.name, op, status, _status(tally.first[slot]))
                )
            if status == "error":
                tally.fail("%s/%s: %r" % (item.name, op, verdict))
                continue
            if status == "unknown":
                tally.fail("%s/%s: unknown %s" % (item.name, op, verdict.flags))
                continue
            if status != "separable" or verdict.separator is None:
                continue
            for side in (1, 2):
                for w in item.words[side]:
                    tally.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        ans = sep.separator_membership(verdict.separator, w)
                    except Exception as exc:
                        ans = exc
                    tally.member.append(time.perf_counter() - t0)
                    if ans is None or isinstance(ans, Exception):
                        tally.fail("%s/%s membership: %r" % (item.name, op, ans))
                        continue
                    tally.member_checked += 1
                    if ans is not (side == 1):
                        tally.mismatches.append(
                            "%s/%s: membership of an L%d word is %s"
                            % (item.name, op, side, ans)
                        )


def _status(verdict):
    return "error" if isinstance(verdict, Exception) else verdict.status


def record(items, tally):
    """(digest, statuses) of the first pass.  The digest covers (instance,
    op, status, k, d, flags, path); statuses map "instance/op" to the
    status.  Instances are named by their base instance, so every isomorphic
    copy, and so every seed, has the same record."""
    rows = []
    for (idx, op), v in sorted(tally.first.items()):
        if isinstance(v, Exception):
            rows.append([items[idx].name, op, "error"])
        else:
            rows.append([items[idx].name, op, v.status, str(v.k), str(v.d),
                         sorted(v.flags), tally.paths[(idx, op)]])
    statuses = {"%s/%s" % (row[0], row[1]): row[2] for row in rows}
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest(), statuses


def recorded_mismatches(statuses, recorded):
    """Decided statuses that differ from the recorded ones.  The record is
    the reference for verdicts no enumeration oracle checks; an unknown
    verdict or an exception is already a failed operation."""
    return [
        "%s: %s, recorded %s" % (key, status, recorded[key])
        for key, status in sorted(statuses.items())
        if status in ("separable", "inseparable") and status != recorded.get(key, status)
    ]


def reference_checks(wl, items, tally, oracle):
    """Check every first-pass verdict; returns (checked, unchecked)."""
    checked = unchecked = 0
    for idx, item in enumerate(items):
        verdicts = {}
        for op in item.ops:
            v = tally.first.get((idx, op))
            if v is not None and not isinstance(v, Exception) and v.separable is not None:
                verdicts[op] = v
        c, u, bad = wl.check_item(item, verdicts, oracle)
        checked += c
        unchecked += u
        tally.mismatches.extend(bad)
    return checked, unchecked


def setup(workload, seed, copy):
    """Import ltsep and its solver stack, build the corpus copy, parse every
    spec and warm up.  Returns (set-up seconds not counting corpus
    generation, workloads module, corpus)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module("workloads")
    t1 = time.perf_counter()
    items = wl.build_corpus(workload, seed, copy)
    t2 = time.perf_counter()
    for item in items:
        wl.parse_spec(item.text)
    wl.warm_up()
    t3 = time.perf_counter()
    return (t1 - t0) + (t3 - t2), wl, items


def worker(args):
    """Replay one corpus copy; returns the JSON-able record of the worker."""
    setup_s, wl, items = setup(args.workload, args.seed, args.copy)
    if args.setup_only:
        return {"setup_s": setup_s}
    tally = Tally()
    out = {"setup_s": setup_s, "items": len(items)}
    start = time.perf_counter()
    if not args.trace:
        passes = []
        while True:
            t0 = time.perf_counter()
            run_pass(wl, items, tally)
            passes.append(time.perf_counter() - t0)
            # start another full pass only if it should end within the budget
            if time.perf_counter() - start + passes[-1] > args.seconds:
                break
        out["passes"] = passes
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        out.update(traced(args, wl, items, tally))
    out["slots"] = len(tally.first)
    out["decide"] = tally.decide
    out["member"] = tally.member
    out["digest"], out["statuses"] = record(items, tally)
    out["checked"], out["unchecked"] = reference_checks(wl, items, tally, args.copy == 0)
    for key in ("attempted", "failed", "errors", "mismatches", "member_checked"):
        out[key] = getattr(tally, key)
    return out


def counter_mismatches(layers, names):
    """The size counters that differ between traced passes."""
    out = []
    for name in names:
        seen = {pass_[name] for pass_ in layers}
        if len(seen) > 1:
            out.append("size counter %s differs between traced passes: %s"
                       % (name, sorted(seen)))
    return out


def traced(args, wl, items, tally):
    """An untraced pass and two traced passes, then pairs of an untraced and
    a traced pass while the time budget allows."""
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    start = time.perf_counter()
    plain, timed, layers = [], [], []
    # start another pair of passes only if it should end within the budget
    while len(timed) < 2 or time.perf_counter() - start + plain[-1] + timed[-1] <= args.seconds:
        if len(plain) < len(timed) or not plain:
            t0 = time.perf_counter()
            run_pass(wl, items, tally)
            plain.append(time.perf_counter() - t0)
        with tracer:
            t0 = time.perf_counter()
            run_pass(wl, items, tally)
            timed.append(time.perf_counter() - t0)
        layers.append(tracer.take())
    tally.mismatches.extend(counter_mismatches(layers, tracing.SIZE_COUNTERS))
    # times are medians over the traced passes; counts repeat between them
    metrics = {name: metric(statistics.median(p[name] for p in layers) if unit == "s"
                            else layers[0][name], unit)
               for name, unit in tracing.LAYER_METRICS.items()}
    n = len(tally.paths)
    for path in wl.PATHS:
        share = sum(1 for p in tally.paths.values() if p == path) / n if n else 0.0
        metrics["separ.path." + path] = metric(share, "ratio")
    metrics["trace.overhead"] = metric(statistics.median(timed) / statistics.median(plain),
                                       "ratio")
    notes = [
        "%d untraced and %d traced passes; untraced pass %.2f s, traced pass %.2f s"
        % (len(plain), len(timed), statistics.median(plain), statistics.median(timed)),
        "size counters: " + ", ".join(
            "%s=%s" % (name, layers[0][name]) for name in tracing.SIZE_COUNTERS),
    ]
    return {"metrics": metrics, "notes": notes}


# ---------------------------------------------------------------- parent side


def hash_seed(copy):
    """The PYTHONHASHSEED of the worker replaying a copy.  It is the same for
    every workload and seed, so the program's set iteration orders vary with
    its inputs only and a rerun repeats them exactly."""
    return zlib.crc32(b"ltsep-bench/%d" % copy)


def run_worker(args, copy, seconds, setup_only=False):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--copy", str(copy)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(copy)))
    out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                         timeout=seconds + WORKER_MARGIN)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError("worker %d exited with code %d" % (copy, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail(values, base):
    """(percentile, latency): the highest percentile with at least ten
    samples beyond it in a sample of `base` values, read off `values`.
    `base` is one pass of every copy, so the percentile does not depend on
    how many passes fit in the run."""
    values = sorted(values)
    if base <= 10:
        return 100.0, values[-1]
    beyond = 10 * len(values) // base
    return 100.0 * (1 - 10 / base), values[len(values) - 1 - beyond]


def end_to_end(runs, setup_samples):
    """End-to-end metrics from the workers' records, with notes."""
    lat = [x for r in runs for x in r["decide"]]
    mem = [x for r in runs for x in r["member"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    p, tail_s = tail(lat, sum(r["slots"] for r in runs))
    wall = sum(t for r in runs for t in r["passes"])
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "verdict_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "verdict_tail_ms": metric(tail_s * 1000, "ms"),
        "verdicts_per_s": metric(len(lat) / wall, "1/s"),
        "decided_share": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in runs), "MB"),
    }
    notes = [
        "copy %d: %d full passes (%s s)" % (j, len(r["passes"]),
                                           ", ".join("%.2f" % t for t in r["passes"]))
        for j, r in enumerate(runs)
    ]
    notes += [
        "%d decide operations, %d membership queries (median %.3f ms)"
        % (len(lat), len(mem), statistics.median(mem) * 1000 if mem else 0.0),
        "verdict_tail_ms is the p%.2f" % p,
        "setup_s samples: %s" % ", ".join("%.3f" % s for s in setup_samples),
    ]
    return metrics, notes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--copy", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ltsep" / "__init__.py").is_file():
        print("bench: no ltsep sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.copy is not None:
        print(json.dumps(worker(args)))
        return 0
    if args.trace:
        runs = [run_worker(args, 0, args.seconds)]
        metrics, notes = runs[0]["metrics"], runs[0]["notes"]
    else:
        runs = [run_worker(args, j, args.seconds / COPIES) for j in range(COPIES)]
        extra = [run_worker(args, COPIES + j, 0.0, setup_only=True)["setup_s"]
                 for j in range(SETUP_ONLY)]
        metrics, notes = end_to_end(runs, [r["setup_s"] for r in runs] + extra)
    mismatches = [m for r in runs for m in r["mismatches"]]
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        mismatches.append("isomorphic copies disagree: digests %s" % sorted(digests))
    recorded = json.loads(RECORD.read_text())[args.workload]
    for r in runs:
        mismatches.extend(recorded_mismatches(r["statuses"], recorded["statuses"]))
    errors = [e for r in runs for e in r["errors"]]
    print("workload %s, seed %d, %d items" % (args.workload, args.seed, runs[0]["items"]))
    for line in notes:
        print("  " + line)
    print("  reference checks: %d verdicts checked, %d unchecked, %d membership answers"
          " checked, %d mismatches"
          % (sum(r["checked"] for r in runs), sum(r["unchecked"] for r in runs),
             sum(r["member_checked"] for r in runs), len(mismatches)))
    for line in mismatches[:DETAIL_LINES]:
        print("  MISMATCH " + line)
    for line in errors[:DETAIL_LINES]:
        print("  FAILED " + line)
    print("  digest %s (%s)" % (sorted(digests)[0],
                                "as recorded" if digests == {recorded["digest"]}
                                else "differs from %s" % RECORD.name))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    correct = not mismatches
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
