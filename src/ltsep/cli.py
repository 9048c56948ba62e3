"""Command-line front end.

Subcommands: decide, witness, separator, reduce, bounds, profiles, gen,
oracle.  decide, witness and separator share one handler: they run the same
decision and differ only in what they report.  Exit codes for decision
commands: 0 separable, 1 inseparable, 2 unknown, 3 usage or runtime error.
"""

import argparse
import json
import sys
import time

from . import separ
from .automata import SpecFormatError, dot_export, parse_spec, serialize_spec
from .monoid import (
    MonoidBudgetError, num_profiles, profile_width_bound, threshold_bound, transition_monoid,
)
from .profiles import capped_image, profile_at
from .reduction import SyncBudgetError, build_reduced
from .testkit import (
    exact_fixed_oracle, gen_parity, gen_random, gen_sat_instance, gen_threshold_family, parse_cnf,
)

EXIT_SEPARABLE = 0
EXIT_INSEPARABLE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _add_common(p, need_spec=True):
    if need_spec:
        p.add_argument("spec", help="spec file path, or - for stdin")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--no-timing", action="store_true")


def _add_dot(p):
    p.add_argument("--dot", metavar="FILE", help="write the relevant automaton as DOT")


def _add_kd(p):
    p.add_argument("--k", type=_positive)
    p.add_argument("--d", type=_positive)


def _add_state_budget(p):
    p.add_argument(
        "--state-budget", type=_positive, default=separ.EngineConfig.state_budget
    )


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_dot(path, nfa, initial, final):
    with open(path, "w") as fh:
        fh.write(dot_export(nfa, initial, final))


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def _emit(doc, args, started):
    if not args.no_timing:
        doc["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
    if args.as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for key, val in doc.items():
            print("%s: %s" % (key, json.dumps(_jsonable(val), sort_keys=True)))


def _witness_doc(verdict, args):
    """The witness of an inseparable verdict; ValueError if replay fails."""
    wit = verdict.witness
    if wit is None:
        return None
    if isinstance(wit, separ.WitnessPair):
        return {
            "type": "pair",
            "w1": list(wit.w1),
            "w2": list(wit.w2),
            "k": wit.k,
            "d": wit.d,
        }
    if wit.word is not None:
        w = list(wit.word)
        return {"type": "common-word", "w1": w, "w2": w}
    d = args.d if args.d is not None else 1
    w1, w2 = separ.replay_witness(verdict, d, args.pump_width)
    return {
        "type": "pumped-pattern",
        "d": d,
        "pump_width": args.pump_width,
        "w1": list(w1),
        "w2": list(w2),
    }


def _separator_doc(handle, args, explicit):
    if handle is None:
        return None
    doc = {"k": handle.k, "d": handle.d, "form": "implicit"}
    if explicit:
        try:
            nfa, i, f = separ.separator_automaton(handle, budget=args.state_budget)
            doc["form"] = "explicit"
            doc["states"] = nfa.n_states
            if args.dot:
                _write_dot(args.dot, nfa, [i], [f])
        except separ.AnnotationBudgetError as exc:
            doc["explicit_error"] = str(exc)
    return doc


def _decide(spec, args):
    cfg = separ.EngineConfig(state_budget=args.state_budget, solver_cap=args.solver_cap)
    if args.cls == "fixed":
        if args.k is None or args.d is None:
            raise ValueError("--class fixed requires --k and --d")
        return separ.decide_fixed(spec, args.k, args.d, cfg)
    if args.cls == "lt":
        return separ.decide_lt(spec, cfg)
    return separ.decide_ltt(spec, cfg)


def _exit_code(verdict):
    if verdict.separable is True:
        return EXIT_SEPARABLE
    if verdict.separable is False:
        return EXIT_INSEPARABLE
    return EXIT_UNKNOWN


def cmd_decision(args):
    """decide reports witness and separator, witness only the witness, and
    separator only the separator (always explicit, null unless separable)."""
    started = time.monotonic()
    spec = parse_spec(_read_text(args.spec))
    explicit = args.emit_separator or args.command == "separator"
    if args.dot and args.command == "decide" and not explicit:
        _write_dot(args.dot, spec.nfa, [spec.i1, spec.i2], [spec.f1, spec.f2])
    verdict = _decide(spec, args)
    doc = {
        "problem": verdict.problem,
        "status": verdict.status,
        "k": verdict.k,
        "d": verdict.d,
        "flags": list(verdict.flags),
        "notes": _jsonable(verdict.notes),
    }
    if args.command != "separator" and verdict.separable is False:
        try:
            doc["witness"] = _witness_doc(verdict, args)
        except ValueError as exc:
            # the verdict stands, but an unchecked pair is never printed
            doc["witness"] = None
            doc["witness_error"] = "witness replay failed: %s" % exc
        if args.command == "witness" and doc["witness"] is None:
            doc.setdefault("witness_error", "verdict carries no materializable witness")
    if args.command != "witness" and verdict.separable is True:
        doc["separator"] = _separator_doc(verdict.separator, args, explicit)
    elif args.command == "separator":
        doc["separator"] = None
    _emit(doc, args, started)
    return _exit_code(verdict)


def cmd_reduce(args):
    started = time.monotonic()
    spec = parse_spec(_read_text(args.spec))
    red = build_reduced(spec)
    doc = {
        "states": red.nfa.n_states,
        "letters": len(red.nfa.alphabet),
        "transitions": len(red.nfa.transitions),
    }
    if args.dot:
        _write_dot(args.dot, red.nfa, [red.i1, red.i2], [red.f1, red.f2])
    if args.as_json:
        doc["alphabet"] = list(red.nfa.alphabet)
        _emit(doc, args, started)
    else:
        print(serialize_spec(red.langspec()), end="")
    return 0


def _bound_text(k, alphabet_size, n):
    """threshold_bound = (profiles * n) ** profiles in decimal when str()
    allows that many digits, else as the text '(profiles*n)^profiles', with
    profiles itself written 'num_profiles(k,|A|)' when it is too long too.

    profiles * n >= 2, so the bound has at least profiles * (bits - 1) bits:
    past 8 * limit bits it has more than limit digits and is never built.
    """
    profiles = num_profiles(k, alphabet_size)
    # 0 means no limit, and Python before 3.10.7 has none: keep CPython's default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if profiles * (profiles * n).bit_length() <= 8 * limit:
        bound = threshold_bound(k, alphabet_size, n)
        if bound < 10 ** limit:
            return str(bound)
    p = str(profiles) if profiles < 10 ** limit else "num_profiles(%d,%d)" % (k, alphabet_size)
    return "(%s*%d)^%s" % (p, n, p)


def cmd_bounds(args):
    started = time.monotonic()
    spec = parse_spec(_read_text(args.spec))
    monoid = transition_monoid(spec.nfa)
    k = profile_width_bound(monoid)
    asz = len(spec.nfa.alphabet)
    doc = {
        "monoid_size": monoid.size,
        "k": k,
        "d_from_monoid": _bound_text(k, asz, monoid.size + 1),
        "d_from_alphabet": _bound_text(k, asz, asz + 1),
    }
    _emit(doc, args, started)
    return 0


def cmd_profiles(args):
    started = time.monotonic()
    word = tuple(args.word.split())
    k = args.k if args.k is not None else 2
    doc = {"word": list(word), "k": k}
    doc["profiles"] = [profile_at(word, x, k).symbol() for x in range(len(word))]
    if args.d is not None:
        img = capped_image(word, k, args.d)
        doc["d"] = args.d
        doc["capped_image"] = {
            p.symbol(): c for p, c in sorted(img.as_dict().items(), key=lambda t: t[0].symbol())
        }
    _emit(doc, args, started)
    return 0


def cmd_gen(args):
    if args.family == "parity":
        spec = gen_parity()
    elif args.family == "threshold":
        if args.m is None:
            raise ValueError("threshold family requires --m")
        spec = gen_threshold_family(args.m)
    elif args.family == "sat":
        if args.cnf is None:
            raise ValueError("sat family requires --cnf FILE (DIMACS-like)")
        spec = gen_sat_instance(parse_cnf(_read_text(args.cnf)))
    else:
        spec = gen_random(args.seed, args.states, args.alphabet_size, args.density)
    if args.dot:
        _write_dot(args.dot, spec.nfa, [spec.i1, spec.i2], [spec.f1, spec.f2])
    sys.stdout.write(serialize_spec(spec))
    return 0


def cmd_oracle(args):
    started = time.monotonic()
    spec = parse_spec(_read_text(args.spec))
    if args.k is None or args.d is None:
        raise ValueError("oracle requires --k and --d")
    status = exact_fixed_oracle(spec, args.k, args.d, args.state_budget)
    _emit({"problem": "fixed", "status": status, "k": args.k, "d": args.d}, args, started)
    return EXIT_SEPARABLE if status == "separable" else EXIT_INSEPARABLE


def _build_parser():
    top = argparse.ArgumentParser(prog="ltsep")
    sub = top.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("decide", "decide LT/LTT/fixed separability"),
        ("witness", "decide and emit an inseparability witness"),
        ("separator", "decide and emit the separator"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--class", dest="cls", choices=("lt", "ltt", "fixed"), default="ltt")
        _add_kd(p)
        if name == "witness":
            # a witness report writes neither a separator nor an automaton
            p.set_defaults(dot=None, emit_separator=False)
        else:
            _add_dot(p)
            p.add_argument("--emit-separator", action="store_true")
        p.add_argument("--pump-width", type=_positive, default=1, metavar="L")
        p.add_argument(
            "--solver-cap", type=_positive, default=separ.EngineConfig.solver_cap
        )
        _add_state_budget(p)
        p.set_defaults(run=cmd_decision)

    p = sub.add_parser("reduce", help="print the width-1 reduced spec")
    _add_common(p)
    _add_dot(p)
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("bounds", help="print monoid size and width/threshold bounds")
    _add_common(p)
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("profiles", help="print the profiles of a word")
    _add_common(p, need_spec=False)
    p.add_argument("word", help="space-separated word, e.g. 'a b a'")
    _add_kd(p)
    p.set_defaults(run=cmd_profiles)

    p = sub.add_parser("gen", help="generate example specs")
    p.add_argument(
        "family", choices=("parity", "threshold", "sat", "random")
    )
    p.add_argument("--m", type=int, help="threshold family size")
    p.add_argument("--cnf", help="CNF file for the sat family, or - for stdin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--alphabet-size", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    _add_dot(p)
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("oracle", help="exact fixed-(k,d) signature oracle")
    _add_common(p)
    _add_kd(p)
    _add_state_budget(p)
    p.set_defaults(run=cmd_oracle)

    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (
        ValueError,
        OSError,
        SpecFormatError,
        SyncBudgetError,
        MonoidBudgetError,
        separ.AnnotationBudgetError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
