"""Command-line interface: exit codes, output schema, and subcommands."""

import json
import os
import subprocess
import sys

import pytest

import ltsep
from ltsep.automata import parse_spec, serialize_spec
from ltsep.cli import (
    EXIT_ERROR,
    EXIT_INSEPARABLE,
    EXIT_SEPARABLE,
    EXIT_UNKNOWN,
    RunConfig,
    main,
)
from ltsep.testkit import gen_parity, gen_random


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.txt"
    main(["gen", "parity"])  # smoke the generator too
    from ltsep.automata import serialize_spec

    path.write_text(serialize_spec(gen_parity()))
    return str(path)


@pytest.fixture
def fork_file(tmp_path):
    path = tmp_path / "fork.txt"
    path.write_text(
        "alphabet: a b\nstates: 3\ntrans: 0 a 1\ntrans: 0 b 2\n"
        "I1: 0\nF1: 1\nI2: 0\nF2: 2\n"
    )
    return str(path)


def _json_out(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(k=0)
        with pytest.raises(ValueError):
            RunConfig(d=0)
        with pytest.raises(ValueError):
            RunConfig(pump_width=0)

    def test_engine_budgets(self):
        cfg = RunConfig(solver_cap=123, state_budget=456)
        eng = cfg.engine()
        assert eng.solver_cap == 123
        assert eng.annot_budget == 456
        assert eng.signature_budget == 456


class TestDecide:
    def test_inseparable_exit_and_witness(self, parity_file, capsys):
        code = main(["decide", parity_file, "--json"])
        doc = _json_out(capsys)
        assert code == EXIT_INSEPARABLE
        assert doc["status"] == "inseparable"
        assert doc["witness"]["w1"] and doc["witness"]["w2"]

    def test_separable_exit_and_separator(self, fork_file, capsys):
        code = main(["decide", fork_file, "--json", "--class", "lt"])
        doc = _json_out(capsys)
        assert code == EXIT_SEPARABLE
        assert doc["status"] == "separable"

    def test_fixed_class_requires_parameters(self, parity_file, capsys):
        assert main(["decide", parity_file, "--class", "fixed"]) == EXIT_ERROR
        code = main(
            ["decide", parity_file, "--class", "fixed", "--k", "1", "--d", "1", "--json"]
        )
        assert code == EXIT_INSEPARABLE
        doc = _json_out(capsys)
        assert doc["k"] == 1 and doc["d"] == 1

    def test_json_bit_identical_without_timing(self, parity_file, capsys):
        main(["decide", parity_file, "--json", "--no-timing"])
        first = capsys.readouterr().out
        main(["decide", parity_file, "--json", "--no-timing"])
        second = capsys.readouterr().out
        assert first == second
        assert "timing_ms" not in first

    def test_json_independent_of_hash_seed(self, tmp_path):
        # set iteration order follows PYTHONHASHSEED, which is fixed per
        # interpreter, so only separate processes can show a dependence;
        # iterating these specs in hash order gives different witnesses
        # under hash seeds 0 and 3
        runs = [
            (gen_random(26, 4, 2, 0.3), ["--class", "lt"]),
            (gen_random(7, 3, 2, 0.35), ["--class", "fixed", "--k", "2", "--d", "1"]),
        ]
        src = os.path.dirname(os.path.dirname(ltsep.__file__))
        for n, (spec, opts) in enumerate(runs):
            path = tmp_path / ("spec%d.txt" % n)
            path.write_text(serialize_spec(spec))
            argv = [sys.executable, "-m", "ltsep.cli", "decide", str(path),
                    "--json", "--no-timing"] + opts
            outs = []
            for seed in ("0", "3"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                done = subprocess.run(argv, env=env, capture_output=True, text=True)
                assert done.returncode == EXIT_INSEPARABLE, done.stderr
                outs.append(done.stdout)
            assert outs[0] == outs[1]

    def test_timing_present_by_default(self, parity_file, capsys):
        main(["decide", parity_file, "--json"])
        assert "timing_ms" in _json_out(capsys)


class TestWitnessAndSeparator:
    def test_witness_pumped_at_requested_threshold(self, parity_file, capsys):
        code = main(
            ["witness", parity_file, "--json", "--d", "2", "--pump-width", "2"]
        )
        assert code == EXIT_INSEPARABLE
        doc = _json_out(capsys)
        wit = doc["witness"]
        assert wit["type"] in ("pumped-pattern", "pair", "common-word")
        from ltsep.profiles import equivalent

        assert equivalent(tuple(wit["w1"]), tuple(wit["w2"]), 2, 2)

    def test_separator_explicit(self, fork_file, capsys, tmp_path):
        dot = tmp_path / "sep.dot"
        code = main(
            ["separator", fork_file, "--class", "fixed", "--k", "1", "--d", "1",
             "--json", "--dot", str(dot)]
        )
        assert code == EXIT_SEPARABLE
        doc = _json_out(capsys)
        assert doc["separator"]["form"] == "explicit"
        assert doc["separator"]["states"] >= 1
        assert dot.read_text().startswith("digraph")

    def test_separator_on_inseparable_is_null(self, parity_file, capsys):
        code = main(["separator", parity_file, "--json"])
        assert code == EXIT_INSEPARABLE
        assert _json_out(capsys)["separator"] is None


class TestOtherCommands:
    def test_reduce_round_trips(self, parity_file, capsys):
        assert main(["reduce", parity_file]) == 0
        red = parse_spec(capsys.readouterr().out)
        assert "i:{(0,1),(1,0)}" in red.nfa.alphabet

    def test_bounds_parity(self, parity_file, capsys):
        assert main(["bounds", parity_file, "--json"]) == 0
        doc = _json_out(capsys)
        assert doc["monoid_size"] == 2
        assert doc["k"] == 12
        assert doc["d_from_monoid"] == str(147 ** 49)
        assert doc["d_from_alphabet"] == str(98 ** 49)

    def test_profiles_windows(self, capsys):
        word = "b a c c c a a b c b a a b b a"
        assert main(["profiles", word, "--k", "6", "--json"]) == 0
        doc = _json_out(capsys)
        assert doc["profiles"][0] == "|b,a,c"
        assert doc["profiles"][8] == "a,a,b|c,b,a"
        assert doc["profiles"][13] == "a,a,b|b,a"

    def test_profiles_capped_image(self, capsys):
        assert main(["profiles", "a a a", "--k", "1", "--d", "2", "--json"]) == 0
        doc = _json_out(capsys)
        assert doc["capped_image"] == {"|a": 2}

    def test_gen_families_parse(self, capsys):
        for argv in (
            ["gen", "parity"],
            ["gen", "threshold", "--m", "2"],
            ["gen", "random", "--seed", "3", "--states", "3"],
        ):
            assert main(argv) == 0
            parse_spec(capsys.readouterr().out)

    def test_gen_sat_from_file(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 2 0\n")
        assert main(["gen", "sat", "--cnf", str(cnf)]) == 0
        spec = parse_spec(capsys.readouterr().out)
        assert "pad" in spec.nfa.alphabet

    def test_oracle(self, parity_file, capsys):
        assert (
            main(["oracle", parity_file, "--k", "1", "--d", "1", "--json"])
            == EXIT_INSEPARABLE
        )
        assert _json_out(capsys)["status"] == "inseparable"


class TestErrors:
    def test_usage_error(self):
        assert main(["decide"]) == EXIT_ERROR
        assert main(["no-such-command"]) == EXIT_ERROR

    def test_missing_file(self, capsys):
        assert main(["decide", "/no/such/file"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("alphabet: a\nwhat\n")
        assert main(["decide", str(bad)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_gen_sat_requires_cnf(self, capsys):
        assert main(["gen", "sat"]) == EXIT_ERROR

    def test_oracle_requires_parameters(self, parity_file, capsys):
        assert main(["oracle", parity_file]) == EXIT_ERROR
