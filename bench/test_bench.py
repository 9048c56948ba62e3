"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import random
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from ltsep.automata import accepts, parse_spec  # noqa: E402
from ltsep.profiles import capped_image  # noqa: E402
from ltsep.separ import Verdict  # noqa: E402


def test_corpus_reproducible_from_seed():
    for name in run.WORKLOADS:
        a = wl.build_corpus(name, 7)
        b = wl.build_corpus(name, 7)
        assert [i.text for i in wl.build_corpus(name, 7, 1)] != [i.text for i in a]
        assert [(i.name, i.text, i.words) for i in a] == [(i.name, i.text, i.words) for i in b]
        c = wl.build_corpus(name, 8)
        assert [i.name for i in c] == [i.name for i in a]
        assert [i.text for i in c] != [i.text for i in a]


def test_query_words_belong_to_their_side():
    for name in run.WORKLOADS:
        for item in wl.build_corpus(name, 3)[:12]:
            spec = parse_spec(item.text)
            for w in item.words[1]:
                assert accepts(spec.nfa, spec.i1, spec.f1, w)
            for w in item.words[2]:
                assert accepts(spec.nfa, spec.i2, spec.f2, w)


def test_copies_keep_verdicts():
    base = wl.reduce_specs(4)
    for seed in (1, 2):
        rng = random.Random(seed)
        for _name, spec in base:
            copy, _ren = wl.relabel(spec, rng, [spec.nfa.alphabet])
            assert wl.op_lt(copy).status == wl.op_lt(spec).status


def test_reference_image_matches_capped_image():
    rng = random.Random(5)
    for _ in range(200):
        w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 9)))
        k, d = rng.randint(1, 4), rng.randint(1, 3)
        ours = wl.reference_image(w, k, d)
        theirs = {(p.left, p.right): c for p, c in capped_image(w, k, d).as_dict().items()}
        assert ours == theirs


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracing.TARGETS]


def test_tracer_restores_every_wrapped_function():
    before = _originals()
    tracer = tracing.Tracer()
    try:
        with tracer:
            assert all(hasattr(owner.__dict__[attr], "__wrapped__") for owner, attr, _ in before)
            raise KeyError("escape from the traced block")
    except KeyError:
        pass
    for owner, attr, fn in before:
        assert owner.__dict__[attr] is fn
        assert not hasattr(fn, "__wrapped__")


def test_traced_size_counters_repeat():
    items = wl.build_corpus("reduce-unary", 1)[:6]
    tracer = tracing.Tracer()
    taken = []
    for _ in range(2):
        with tracer:
            run.run_pass(wl, items, run.Tally())
        taken.append(tracer.take())
    for name in tracing.SIZE_COUNTERS:
        assert taken[0][name] == taken[1][name], name
    assert taken[0]["reduction.common_mid_calls"] > 0
    assert set(taken[0]) == set(tracing.LAYER_METRICS)


def test_changed_size_counter_is_reported():
    same = [{"parikh.milp_rows": 7}, {"parikh.milp_rows": 7}]
    assert run.counter_mismatches(same, ("parikh.milp_rows",)) == []
    changed = [{"parikh.milp_rows": 7}, {"parikh.milp_rows": 8}]
    assert len(run.counter_mismatches(changed, ("parikh.milp_rows",))) == 1


def test_hook_time_stays_out_of_every_span():
    tracer = tracing.Tracer()

    def slow_hook(tr, args, res):
        time.sleep(0.05)

    inner = tracer._wrap("inner", lambda: None, slow_hook, None)
    outer = tracer._wrap("outer", inner, None, None)
    outer()
    assert tracer.calls["inner"] == tracer.calls["outer"] == 1
    assert tracer.time["outer"] < 0.02
    assert tracer.self_time["outer"] < 0.02


def test_status_differing_from_record_is_a_mismatch():
    recorded = {"f0/ltt": "separable", "f0/lt": "separable", "f1/lt": "inseparable"}
    statuses = {"f0/ltt": "separable", "f0/lt": "inseparable", "f1/lt": "unknown"}
    # the unknown verdict is a failed operation, not a mismatch
    assert run.recorded_mismatches(statuses, recorded) == [
        "f0/lt: inseparable, recorded separable"
    ]


def test_record_covers_every_workload():
    recorded = json.loads(run.RECORD.read_text())
    assert set(recorded) == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        items = wl.build_corpus(name, 1)
        keys = {"%s/%s" % (i.name, op) for i in items for op in i.ops}
        assert set(recorded[name]["statuses"]) == keys


def _fake_workload(ops, membership):
    return types.SimpleNamespace(
        OPS=ops,
        parse_spec=lambda text: text,
        path_of=lambda v: "reduction",
        separ=types.SimpleNamespace(separator_membership=membership),
    )


def test_unknown_and_exceptions_are_failed_operations():
    def boom(spec):
        raise RuntimeError("solver stall")

    ops = {
        "unknown": lambda spec: Verdict("ltt", None, flags=["solver-budget"]),
        "boom": boom,
        "ok": lambda spec: Verdict("ltt", False),
        "sep": lambda spec: Verdict("ltt", True, separator=object()),
    }
    fake = _fake_workload(ops, lambda handle, w: None)
    item = wl.Item("x", "spec", ("unknown", "boom", "ok", "sep"), words={1: [("a",)], 2: []})
    tally = run.Tally()
    run.run_pass(fake, [item], tally)
    # four decide operations and one membership query returning None
    assert tally.attempted == 5
    assert tally.failed == 3
    assert not tally.mismatches


def test_wrong_membership_answer_is_a_mismatch():
    ops = {"sep": lambda spec: Verdict("ltt", True, separator=object())}
    fake = _fake_workload(ops, lambda handle, w: True)
    item = wl.Item("x", "spec", ("sep",), words={1: [("a",)], 2: [("b",)]})
    tally = run.Tally()
    run.run_pass(fake, [item], tally)
    assert tally.failed == 0
    assert len(tally.mismatches) == 1


def test_wrong_verdict_is_a_mismatch():
    item = wl.build_corpus("sat-cnf", 1)[1]  # an unsatisfiable core
    right = wl.op_ltt(parse_spec(item.text))
    assert right.status == "separable"
    assert wl.check_item(item, {"ltt": right})[2] == []
    wrong = Verdict("ltt", False)
    assert wl.check_item(item, {"ltt": wrong})[2]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(range(100), 100) == (90.0, 89)
    # a second pass doubles the samples but keeps the percentile
    assert run.tail(list(range(100)) * 2, 100) == (90.0, 89)
    assert run.tail(range(60), 60)[1] == 49
    assert run.tail(range(8), 8) == (100.0, 7)


def test_hash_seeds_differ_between_copies():
    seeds = [run.hash_seed(j) for j in range(run.COPIES)]
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= h < 2 ** 32 for h in seeds)
