"""Command-line front door.

Subcommands:
  verify  <suite>        run a named verification suite
  eval    <expression>   normalize an expression over a ring descriptor
  certify <morphism.json>  check a user-supplied morphism for idempotence

Exit codes: 0 pass, 1 clause failure, 2 usage or parse error (including a
size option below 1 and input nested too deeply to read).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .errors import ParseError, SuperAlgError
from .expressions import parse_element
from .reports import SuiteReport, residual_witness
from .scalars import digit_limit_error
from .suites import SUITES, run_suite
from .supermodule import SuperMorphism, split_idempotent
from .superring import SuperRing

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _emit(report: SuiteReport, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json_text())
    else:
        print(report.to_text(color=_use_color()))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the one other error of json.loads: an integer literal past the digit limit
        raise digit_limit_error(f"a number in {path}") from None


def _load_ring(path: str) -> SuperRing:
    return SuperRing.from_json(_read_json(path))


def positive_int(text: str) -> int:
    """argparse type of the size options: an integer of at least 1, so no suite runs zero trials."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite, L=args.L, n=args.n, max_n=args.max_n, seed=args.seed, count=args.count
    )
    return _emit(report, args.format)


def cmd_eval(args) -> int:
    ring = _load_ring(args.ring)
    element = parse_element(args.expression, ring)
    if args.format == "json":
        print(json.dumps(element.to_json(), indent=2, sort_keys=True))
    else:
        print(element.to_text())
    return EXIT_PASS


def cmd_certify(args) -> int:
    morphism = SuperMorphism.from_json(_read_json(args.file))
    if morphism.source != morphism.target:
        raise SuperAlgError("certification requires a square matrix (source = target)")
    start = time.perf_counter()
    report = SuiteReport(
        "certify-idempotent",
        params={"file": args.file, "type": f"({morphism.source.p},{morphism.source.q})"},
    )
    residual = morphism.idempotence_residual()
    idempotent = report.add(
        "idempotent", not residual, residual_witness("residual g^2 - g", residual)
    )
    degree = morphism.degree()
    report.add(
        "parity-analysis",
        True,
        f"morphism degree: {'mixed' if degree is None else degree}",
    )
    if idempotent:
        report.add(
            "split-round-trip",
            split_idempotent(morphism).round_trip_holds(),
            "x -> (g(x), x - g(x)) inverts; F = Im g + Ker g",
        )
    report.wall_time = time.perf_counter() - start
    return _emit(report, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superalg",
        description="Exact superalgebra computations and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--L", type=positive_int, default=None, help="Grassmann generator count")
    verify.add_argument("--n", type=positive_int, default=None, help="instance index (sphere/landi level)")
    verify.add_argument("--max-n", dest="max_n", type=positive_int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--count", type=positive_int, default=None, help="randomized trial count")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    evaluate = sub.add_parser("eval", help="normalize an expression over a ring")
    evaluate.add_argument(
        "expression", help="the expression; one that starts with '-' goes after '--': eval --ring r.json -- '-b1*b2'"
    )
    evaluate.add_argument("--ring", required=True, help="path to a ring descriptor JSON file")
    evaluate.add_argument("--format", choices=("text", "json"), default="text")
    evaluate.set_defaults(func=cmd_eval)

    certify = sub.add_parser("certify", help="certify a morphism JSON file as an idempotent")
    certify.add_argument("file")
    certify.add_argument("--format", choices=("text", "json"), default="text")
    certify.set_defaults(func=cmd_certify)
    return parser


_parser = functools.cache(build_parser)  # one parser per process: parse_args keeps no state


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SuperAlgError, OSError, json.JSONDecodeError, KeyError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
