"""Command-line interface: exit codes, output schema, and subcommands."""

import json
import os
import subprocess
import sys

import pytest

import ltsep
from ltsep import separ
from ltsep.automata import parse_spec, serialize_spec
from ltsep.cli import (
    EXIT_ERROR,
    EXIT_INSEPARABLE,
    EXIT_SEPARABLE,
    EXIT_UNKNOWN,
    main,
)
from ltsep.testkit import gen_parity, gen_random, gen_threshold_family


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


class TestOptions:
    def test_validation(self, parity_file, capsys):
        # a value below 1 exits 3 on every subcommand that has the option,
        # while the same command with valid values does not
        valid_values = {
            "--k": "1", "--d": "1", "--pump-width": "1",
            "--solver-cap": "1000", "--state-budget": "1000",
        }
        every = tuple(valid_values)
        for command, opts in (
            ("decide", every),
            ("witness", every),
            ("separator", every),
            ("profiles", ("--k", "--d")),
            ("oracle", ("--k", "--d", "--state-budget")),
        ):
            head = [command, "a b" if command == "profiles" else parity_file]
            valid = {opt: valid_values[opt] for opt in opts}
            assert main(head + [t for kv in valid.items() for t in kv]) != EXIT_ERROR
            for opt in opts:
                argv = head + [t for kv in dict(valid, **{opt: "0"}).items() for t in kv]
                capsys.readouterr()
                assert main(argv) == EXIT_ERROR, (command, opt)
                assert opt in capsys.readouterr().err, (command, opt)

    @pytest.mark.parametrize("argv, opt", [
        (["witness", "SPEC", "--dot", "DOT"], "--dot"),
        (["witness", "SPEC", "--emit-separator"], "--emit-separator"),
        (["bounds", "SPEC", "--dot", "DOT"], "--dot"),
        (["profiles", "a b", "--dot", "DOT"], "--dot"),
        (["oracle", "SPEC", "--k", "1", "--d", "1", "--dot", "DOT"], "--dot"),
    ])
    def test_unread_option_rejected(self, argv, opt, parity_file, tmp_path, capsys):
        # an option is registered only where its subcommand reads it
        dot = str(tmp_path / "out.dot")
        argv = [{"SPEC": parity_file, "DOT": dot}.get(a, a) for a in argv]
        assert main(argv) == EXIT_ERROR
        assert opt in capsys.readouterr().err
        assert not os.path.exists(dot)
        assert main([a for a in argv if a not in (opt, dot)]) != EXIT_ERROR

    def test_dot_written_where_read(self, parity_file, fork_file, tmp_path, capsys):
        for n, argv in enumerate((
            ["decide", parity_file],
            ["decide", fork_file, "--emit-separator", "--class", "fixed",
             "--k", "1", "--d", "1"],
            ["separator", fork_file, "--class", "fixed", "--k", "1", "--d", "1"],
            ["reduce", parity_file],
            ["gen", "parity"],
        )):
            dot = tmp_path / ("out%d.dot" % n)
            assert main(argv + ["--dot", str(dot)]) != EXIT_ERROR, argv
            assert dot.read_text().startswith("digraph"), argv

    def test_engine_budgets(self, parity_file, monkeypatch):
        seen = []

        def decide_ltt(spec, cfg=None):
            seen.append(cfg)
            return separ.Verdict("ltt", None)

        monkeypatch.setattr(separ, "decide_ltt", decide_ltt)
        argv = ["decide", parity_file, "--solver-cap", "123", "--state-budget", "456"]
        assert main(argv) == EXIT_UNKNOWN
        assert main(["decide", parity_file]) == EXIT_UNKNOWN
        assert seen == [
            separ.EngineConfig(state_budget=456, solver_cap=123),
            separ.EngineConfig(),
        ]


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

    def test_fixed_class_common_word(self, tmp_path, capsys):
        path = tmp_path / "common.txt"
        path.write_text(serialize_spec(gen_random(28, 3, 2, 0.3)))
        argv = ["decide", str(path), "--class", "fixed", "--k", "2", "--d", "1", "--json"]
        assert main(argv) == EXIT_INSEPARABLE
        wit = _json_out(capsys)["witness"]
        assert wit["type"] == "pair"
        assert wit["w1"] == wit["w2"] == ["a", "b"]

    def test_fixed_state_budget_exits_unknown(self, parity_file, capsys):
        argv = ["decide", parity_file, "--class", "fixed", "--k", "4", "--d", "1",
                "--state-budget", "3", "--json"]
        assert main(argv) == EXIT_UNKNOWN
        doc = _json_out(capsys)
        assert doc["status"] == "unknown"
        assert doc["flags"] == ["state-budget"]

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

    def test_decide_is_witness_plus_separator(self, parity_file, fork_file, tmp_path, capsys):
        # the three decision commands report one decision: decide with an
        # explicit separator shows what witness and separator show together
        paths = [parity_file, fork_file]
        for n, spec in enumerate(
            (gen_threshold_family(1), gen_random(365, 3, 2, 0.3), gen_random(7, 3, 2, 0.35))
        ):
            path = tmp_path / ("spec%d.txt" % n)
            path.write_text(serialize_spec(spec))
            paths.append(str(path))
        for path in paths:
            for opts in (["--class", "ltt"], ["--class", "lt"],
                         ["--class", "fixed", "--k", "1", "--d", "1"]):
                docs, codes = {}, set()
                for command in ("decide", "witness", "separator"):
                    extra = ["--emit-separator"] if command == "decide" else []
                    codes.add(main([command, path, "--json", "--no-timing"] + opts + extra))
                    docs[command] = _json_out(capsys)
                assert len(codes) == 1, (path, opts)
                want = dict(docs["witness"])
                if docs["decide"]["status"] == "separable":
                    want["separator"] = docs["separator"]["separator"]
                assert docs["decide"] == want, (path, opts)
                verdict = {k: v for k, v in want.items() if k not in ("witness", "separator")}
                assert {k: v for k, v in docs["separator"].items() if k != "separator"} == verdict

    def test_lt_witness_that_fails_replay_is_not_printed(self, tmp_path, capsys):
        # one b against two: LT-inseparable, yet LTT-separable at threshold
        # 2, so no LT pattern of it pumps to a pair equivalent at (1, 2); the
        # verdict stands but no unchecked pair is printed
        path = tmp_path / "one_vs_two_b.txt"
        path.write_text(
            "alphabet: a b\nstates: 3\n"
            "trans: 0 a 0\ntrans: 0 b 1\ntrans: 1 a 1\ntrans: 1 b 2\ntrans: 2 a 2\n"
            "I1: 0\nF1: 1\nI2: 0\nF2: 2\n"
        )
        code = main(["witness", str(path), "--class", "lt", "--d", "2", "--json"])
        assert code == EXIT_INSEPARABLE
        doc = _json_out(capsys)
        assert doc["witness"] is None
        assert doc["witness_error"].startswith("witness replay failed")
        assert main(["decide", str(path), "--class", "ltt", "--json"]) == EXIT_SEPARABLE
        assert _json_out(capsys)["d"] == 2


class TestOtherCommands:
    def test_reduce_round_trips(self, parity_file, capsys):
        assert main(["reduce", parity_file]) == 0
        red = parse_spec(capsys.readouterr().out)
        assert "i:[0,1]{(0,1),(1,0)}[0,1]" in red.nfa.alphabet

    def test_bounds_parity(self, parity_file, capsys):
        assert main(["bounds", parity_file, "--json"]) == 0
        doc = _json_out(capsys)
        assert doc["monoid_size"] == 2
        assert doc["k"] == 12
        assert doc["d_from_monoid"] == str(147 ** 49)
        assert doc["d_from_alphabet"] == str(98 ** 49)

    def test_bounds_too_long_to_print(self, fork_file, tmp_path, capsys):
        # the fork spec's 4 monoid elements give width 20 and 2047^2 = 4190209
        # profiles over {a, b}, so its bounds have tens of millions of digits;
        # the 9,877 elements of the second give width 39,512, where the
        # profile count alone has about 11,900 digits.  Neither is ever built.
        big = tmp_path / "big.txt"
        big.write_text(serialize_spec(gen_random(38, 9, 2, 0.2)))
        p = "num_profiles(39512,2)"
        for path, size, k, d_from_monoid, d_from_alphabet in (
            (fork_file, 4, 20, "(4190209*5)^4190209", "(4190209*3)^4190209"),
            (str(big), 9877, 39512, "(%s*9878)^%s" % (p, p), "(%s*3)^%s" % (p, p)),
        ):
            assert main(["bounds", path, "--json"]) == 0
            doc = _json_out(capsys)
            assert (doc["monoid_size"], doc["k"]) == (size, k)
            assert doc["d_from_monoid"] == d_from_monoid
            assert doc["d_from_alphabet"] == d_from_alphabet

    def test_bounds_decimal_up_to_digit_limit(self, parity_file, capsys, monkeypatch):
        # parity has 49 profiles at k = 12, and 147^49 has 107 decimal digits
        for limit, want in (
            (107, str(147 ** 49)),
            (106, "(49*3)^49"),
            (1, "(num_profiles(12,1)*3)^num_profiles(12,1)"),
        ):
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
            assert main(["bounds", parity_file, "--json"]) == 0
            assert _json_out(capsys)["d_from_monoid"] == want

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
