"""Command-line surface: construct, analyze, lexify, expansion, betti, verify-grid.

Exit codes: 0 success, 2 usage (bad arguments, unreadable or malformed input
files), 3 mathematical domain error (unit ideal, non-O-sequence, stability
required, box cap), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .betti import BettiTable
from .betti_oracle import bruteforce_betti_table
from .constructions import ConstructionReport, _measure, construct
from .eliahou_kervaire import ek_betti_table
from .errors import (
    AmbientMismatchError,
    ConstructionError,
    LexsegError,
    NotOSequenceError,
    StabilityRequiredError,
)
from .hilbert import hilbert_series
from .macaulay import (
    HilbertFunctionSpec,
    _lex_ideal_and_series,
    generation_horizon,
    macaulay_expansion,
    macaulay_growth,
)
from .monomials import MonomialIdeal, is_lexsegment, is_stable, is_strongly_stable

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < low:
        raise argparse.ArgumentTypeError(f"{text!r} must be >= {low}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}")


def _load_ideal(path: str) -> MonomialIdeal:
    data = _load_json(path)
    try:
        return MonomialIdeal.from_json_dict(data)
    except (KeyError, TypeError, ValueError, AmbientMismatchError) as exc:
        raise _UsageError(f"{path} is not a valid ideal file: {exc}")


def _load_hf_spec(path: str) -> HilbertFunctionSpec:
    data = _load_json(path)
    try:
        return HilbertFunctionSpec.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"{path} is not a valid Hilbert function spec: {exc}")


def _write_json(path: str, data: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


def _print_json(data: dict) -> None:
    print(json.dumps(data, indent=2))


def _flag(value) -> str:
    return {True: "yes", False: "no", None: "n/a"}[value]


def _analyze_data(ideal: MonomialIdeal, force_oracle: bool, max_degree: int) -> dict:
    series = hilbert_series(ideal)
    table = None
    if not force_oracle:
        try:
            table = ek_betti_table(ideal)  # its stability check picks the engine
        except StabilityRequiredError:
            pass
    if ideal.is_zero:
        stable = strongly = lexseg = None
    else:
        stable = is_stable(ideal) if force_oracle else table is not None
        strongly = is_strongly_stable(ideal)
        lexseg = is_lexsegment(ideal, series)
    if table is None:
        engine, table = "oracle", bruteforce_betti_table(ideal)
    else:
        engine = "eliahou-kervaire"
    inv = _measure(ideal, series, table)
    return {
        "ideal": ideal.to_json_dict(),
        "generators": [str(m) for m in ideal.gens],
        "dim": inv.dim,
        "depth": inv.depth,
        "regularity": inv.regularity,
        "projective_dimension": table.projective_dimension,
        "hilbert_series": str(series),
        "h_polynomial": list(series.numerator),
        "h_degree": inv.h_degree,
        "hilbert_function": [series.coefficient(k) for k in range(max_degree + 1)],
        "stable": stable,
        "strongly_stable": strongly,
        "lexsegment": lexseg,
        "inequality_slack": (inv.dim - inv.depth) - (inv.h_degree - inv.regularity),
        "betti_engine": engine,
        "betti": table.to_json_dict(),
    }


def cmd_construct(args) -> int:
    report: ConstructionReport = construct(args.r, args.s)
    ideal, series, table = report.ideal, report.series, report.betti
    if args.out:
        _write_json(args.out, ideal.to_json_dict())
    if args.format == "json":
        _print_json({
            "r": args.r,
            "s": args.s,
            "branch": report.branch,
            "predicted": report.predicted._asdict(),
            "measured": report.measured._asdict(),
            "ideal": ideal.to_json_dict(),
            "generators": [str(m) for m in ideal.gens],
            "hilbert_series": str(series),
            "h_polynomial": list(series.numerator),
            "betti": table.to_json_dict(),
        })
        return EXIT_OK
    p, m = report.predicted, report.measured
    print(f"branch: {report.branch}")
    print(f"predicted: n={p.n} reg={p.regularity} h-degree={p.h_degree} "
          f"dim={p.dim} depth={p.depth}")
    print(f"measured:  n={m.n} reg={m.regularity} h-degree={m.h_degree} "
          f"dim={m.dim} depth={m.depth}")
    print(f"minimal generators ({len(ideal.gens)}): "
          f"{', '.join(str(g) for g in ideal.gens)}")
    print(f"hilbert series: {series}")
    print(f"h-polynomial: {list(series.numerator)}")
    print("betti table:")
    print(table.to_text())
    if args.out:
        print(f"ideal written to {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    ideal = _load_ideal(args.ideal)
    data = _analyze_data(ideal, args.oracle, args.max_degree)
    if args.format == "json":
        _print_json(data)
        return EXIT_OK
    print(f"ambient variables: {ideal.n}")
    gens = data["generators"]
    print(f"minimal generators ({len(gens)}): "
          f"{', '.join(gens) if gens else '(zero ideal)'}")
    print(f"dim S/I: {data['dim']}")
    print(f"depth S/I: {data['depth']}")
    print(f"regularity: {data['regularity']}")
    print(f"projective dimension: {data['projective_dimension']}")
    print(f"hilbert series: {data['hilbert_series']}")
    print(f"hilbert function: {', '.join(str(v) for v in data['hilbert_function'])}, ...")
    print(f"h-polynomial: {data['h_polynomial']}")
    print(f"h-degree: {data['h_degree']}")
    print(f"stable: {_flag(data['stable'])}   strongly stable: "
          f"{_flag(data['strongly_stable'])}   lexsegment: {_flag(data['lexsegment'])}")
    slack = data["inequality_slack"]
    print(f"(dim - depth) - (h-degree - regularity) = {slack} "
          f"{'>=' if slack >= 0 else '<'} 0")
    print(f"betti table (engine: {data['betti_engine']}):")
    rows = data["betti"]["rows"]
    print(BettiTable(tuple(tuple(r) for r in rows)).to_text())
    return EXIT_OK


def cmd_lexify(args) -> int:
    spec = _load_hf_spec(args.spec)
    ideal, series = _lex_ideal_and_series(spec, args.n)
    horizon = generation_horizon(spec)
    values = [series.coefficient(k) for k in range(horizon + 4)]
    if args.out:
        _write_json(args.out, ideal.to_json_dict())
    if args.format == "json":
        _print_json({
            "n": args.n,
            "spec": spec.to_json_dict(),
            "ideal": ideal.to_json_dict(),
            "generators": [str(m) for m in ideal.gens],
            "verified_hilbert_function": values,
        })
        return EXIT_OK
    print(f"lexsegment ideal in {args.n} variables with "
          f"{len(ideal.gens)} minimal generators")
    if ideal.gens:
        print(f"generators: {', '.join(str(m) for m in ideal.gens)}")
    print(f"verified hilbert function (degrees 0..{horizon + 3}): "
          f"{', '.join(str(v) for v in values)}")
    if args.out:
        print(f"ideal written to {args.out}")
    return EXIT_OK


def cmd_expansion(args) -> int:
    exp = macaulay_expansion(args.a, args.d)
    data = {
        "a": args.a,
        "d": args.d,
        "terms": [list(t) for t in exp.terms],
        "text": f"{args.a} = {exp}",
    }
    if args.growth:
        data["growth"] = macaulay_growth(args.a, args.d)
    if args.format == "json":
        _print_json(data)
        return EXIT_OK
    print(data["text"])
    if args.growth:
        print(f"{args.a}^<{args.d}> = {data['growth']}")
    return EXIT_OK


def cmd_betti(args) -> int:
    ideal = _load_ideal(args.ideal)
    table = bruteforce_betti_table(ideal) if args.oracle else ek_betti_table(ideal)
    if args.format == "json":
        _print_json(table.to_json_dict())
    else:
        print(table.to_text())
    return EXIT_OK


def cmd_verify_grid(args) -> int:
    t0 = time.time()
    failures = []
    matrix = []
    for r in range(1, args.rmax + 1):
        row = []
        for s in range(1, args.smax + 1):
            try:
                report = construct(r, s)
                m = report.measured
                line = (f"r={r:2d} s={s:2d} n={m.n:2d} branch={report.branch:<11s} "
                        f"reg={m.regularity:2d} degh={m.h_degree:2d} "
                        f"dim={m.dim:2d} depth={m.depth:2d} lex=yes")
                if args.oracle and report.ideal.n <= 4:
                    same = bruteforce_betti_table(report.ideal).rows == report.betti.rows
                    line += f" oracle={'ok' if same else 'MISMATCH'}"
                    if not same:
                        raise ConstructionError(
                            f"oracle disagrees with closed form at r={r}, s={s}")
                print(line + " ok")
                row.append(True)
            except (LexsegError, AssertionError) as exc:
                print(f"r={r:2d} s={s:2d} FAIL: {exc}")
                failures.append((r, s))
                row.append(False)
        matrix.append(row)
    print()
    header = "      " + " ".join(f"s={s:<2d}" for s in range(1, args.smax + 1))
    print(header)
    for r, row in enumerate(matrix, start=1):
        print(f"r={r:2d} | " + "  ".join("ok" if ok else " X" for ok in row))
    total = args.rmax * args.smax
    passed = total - len(failures)
    print(f"{passed}/{total} cells passed in {time.time() - t0:.2f}s")
    return EXIT_OK if not failures else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexseg",
        description="Hilbert series, regularity, and Betti tables of monomial "
                    "ideals; lexsegment ideals with prescribed regularity and "
                    "h-polynomial degree.",
        epilog="exit codes: 0 ok, 2 usage, 3 domain error, 4 verification failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct",
                       help="lexsegment ideal with regularity r and h-degree s")
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--s", type=_positive_int, required=True)
    p.add_argument("--out", help="write the ideal as JSON to this path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="full invariant report for an ideal file")
    p.add_argument("ideal", help="ideal JSON file")
    p.add_argument("--oracle", action="store_true",
                   help="force the brute-force Betti engine")
    p.add_argument("--max-degree", type=_non_negative_int, default=8,
                   help="how far to print the Hilbert function (default 8)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lexify",
                       help="realize a Hilbert function by its lexsegment ideal")
    p.add_argument("spec", help="Hilbert function spec JSON file")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="ambient variable count")
    p.add_argument("--out", help="write the ideal as JSON to this path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_lexify)

    p = sub.add_parser("expansion", help="Macaulay binomial expansion of a in degree d")
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--growth", action="store_true",
                   help="also print the growth bound a^<d>")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("betti", help="Betti table of an ideal file")
    p.add_argument("ideal", help="ideal JSON file")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force engine (works for non-stable ideals)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("verify-grid",
                       help="construct and verify every (r, s) in a grid")
    p.add_argument("--rmax", type=_positive_int, default=12)
    p.add_argument("--smax", type=_positive_int, default=12)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check Betti tables on cells with n <= 4")
    p.set_defaults(func=cmd_verify_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotOSequenceError as exc:
        where = "" if exc.degree is None else f" (first violation at degree {exc.degree})"
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConstructionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except LexsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
