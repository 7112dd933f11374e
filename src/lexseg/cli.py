"""Command-line surface: construct, analyze, lexify, expansion, betti, verify-grid.

Each command but verify-grid computes its report and returns it as
``(data, lines)``: the dict that ``--format json`` prints (for betti, the
Betti table) and the text lines.  `main` renders it: it writes ``--out``
before anything reaches stdout, prints the JSON or the text, and maps errors
to exit codes.  verify-grid prints one line per cell as it goes and returns
its own exit code.

Exit codes: 0 success, 1 stdout closed early (quietly), 2 usage (bad
arguments, unreadable or malformed input files, an unwritable ``--out``,
``analyze --max-degree`` over 10^4), 3 mathematical domain error (unit ideal,
non-O-sequence, stability required, box, generator, entry or Betti table
cap), 4 verification failure.  The caps are `errors.CAPS`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .betti_oracle import bruteforce_betti_table
from .constructions import ConstructionReport, _measure, construct
from .eliahou_kervaire import _ek_table, ek_betti_table
from .errors import (
    CAPS,
    AmbientMismatchError,
    ConstructionError,
    LexsegError,
    NotOSequenceError,
    UnitIdealError,
    cap_message,
)
from .hilbert import _reduced_series, _stable_series
from .macaulay import (
    HilbertFunctionSpec,
    _lex_ideal_and_series,
    macaulay_expansion,
    macaulay_growth,
)
from .monomials import WALKS, MonomialIdeal, _row_str, _tallies

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


def _max_degree(text: str) -> int:
    value = _int_at_least(text, 0)
    if value > CAPS["max-degree"].bound:
        raise argparse.ArgumentTypeError(cap_message("max-degree", text))
    return value


def _load(path: str, cls, what: str):
    """``cls.from_json_dict`` of the JSON file at ``path``; ``what`` names the
    file kind in the usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays nested deeper than the parser's stack
        raise _UsageError(f"{path} is not valid JSON: {exc}")
    try:
        return cls.from_json_dict(data)
    except (KeyError, TypeError, ValueError, AmbientMismatchError) as exc:
        raise _UsageError(f"{path} is not a valid {what}: {exc}")


def _json(data) -> str:
    """Indented JSON; ideals, specs and Betti tables go as their `to_json_dict`."""
    return json.dumps(data, indent=2, default=lambda obj: obj.to_json_dict())


def _flag(value) -> str:
    return {True: "yes", False: "no", None: "n/a"}[value]


def _analyze_data(ideal: MonomialIdeal, force_oracle: bool, max_degree: int) -> dict:
    """The `analyze` report; "ideal" and "betti" hold the ideal and its table,
    whose alternating sum, the K-polynomial, gives the series.  A stable
    ideal's tallies give the EK table; the oracle's serves when the ideal is
    not stable, or on demand."""
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Hilbert series")
    lexseg, strongly, stable = ([None] * 3 if ideal.is_zero else
                                [_tallies(ideal, fact) is not None for fact in WALKS])
    counts = {} if ideal.is_zero else _tallies(ideal, "stable")  # zero: a trivial table
    if force_oracle or counts is None:
        engine, table = "oracle", bruteforce_betti_table(ideal)
        series = _reduced_series(table.euler_kpolynomial(), ideal.n)
    else:
        table = _ek_table(counts)
        engine, series = "eliahou-kervaire", _stable_series(ideal, table)
    inv = _measure(ideal, series, table)
    return {
        "ideal": ideal,
        "generators": list(map(_row_str, ideal.exponent_rows)),
        "dim": inv.dim,
        "depth": inv.depth,
        "regularity": inv.regularity,
        "projective_dimension": table.projective_dimension,
        "hilbert_series": str(series),
        "h_polynomial": list(series.numerator),
        "h_degree": inv.h_degree,
        "hilbert_function": series.values(max_degree + 1),
        "stable": stable,
        "strongly_stable": strongly,
        "lexsegment": lexseg,
        "inequality_slack": (inv.dim - inv.depth) - (inv.h_degree - inv.regularity),
        "betti_engine": engine,
        "betti": table,
    }


def cmd_construct(args):
    report: ConstructionReport = construct(args.r, args.s)
    ideal, series, table = report.ideal, report.series, report.betti
    gens = list(map(_row_str, ideal.exponent_rows))
    p, m = report.predicted, report.measured
    data = {
        "r": args.r,
        "s": args.s,
        "branch": report.branch,
        "predicted": p._asdict(),
        "measured": m._asdict(),
        "ideal": ideal,
        "generators": gens,
        "hilbert_series": str(series),
        "h_polynomial": list(series.numerator),
        "betti": table,
    }
    return data, [
        f"branch: {report.branch}",
        f"predicted: n={p.n} reg={p.regularity} h-degree={p.h_degree} "
        f"dim={p.dim} depth={p.depth}",
        f"measured:  n={m.n} reg={m.regularity} h-degree={m.h_degree} "
        f"dim={m.dim} depth={m.depth}",
        f"minimal generators ({len(gens)}): {', '.join(gens)}",
        f"hilbert series: {series}",
        f"h-polynomial: {data['h_polynomial']}",
        "betti table:",
        table.to_text(),
    ]


def cmd_analyze(args):
    ideal = _load(args.ideal, MonomialIdeal, "ideal file")
    data = _analyze_data(ideal, args.oracle, args.max_degree)
    gens = data["generators"]
    slack = data["inequality_slack"]
    return data, [
        f"ambient variables: {ideal.n}",
        f"minimal generators ({len(gens)}): "
        f"{', '.join(gens) if gens else '(zero ideal)'}",
        f"dim S/I: {data['dim']}",
        f"depth S/I: {data['depth']}",
        f"regularity: {data['regularity']}",
        f"projective dimension: {data['projective_dimension']}",
        f"hilbert series: {data['hilbert_series']}",
        f"hilbert function: {', '.join(map(str, data['hilbert_function']))}, ...",
        f"h-polynomial: {data['h_polynomial']}",
        f"h-degree: {data['h_degree']}",
        f"stable: {_flag(data['stable'])}   strongly stable: "
        f"{_flag(data['strongly_stable'])}   lexsegment: {_flag(data['lexsegment'])}",
        f"(dim - depth) - (h-degree - regularity) = {slack} "
        f"{'>=' if slack >= 0 else '<'} 0",
        f"betti table (engine: {data['betti_engine']}):",
        data["betti"].to_text(),
    ]


def cmd_lexify(args):
    spec = _load(args.spec, HilbertFunctionSpec, "Hilbert function spec")
    ideal, _, _, values = _lex_ideal_and_series(spec, args.n)
    gens = list(map(_row_str, ideal.exponent_rows))
    data = {
        "n": args.n,
        "spec": spec,
        "ideal": ideal,
        "generators": gens,
        "verified_hilbert_function": values,
    }
    lines = [f"lexsegment ideal in {args.n} variables with "
             f"{len(gens)} minimal generators"]
    if gens:
        lines.append(f"generators: {', '.join(gens)}")
    lines.append(f"verified hilbert function (degrees 0..{len(values) - 1}): "
                 f"{', '.join(map(str, values))}")
    return data, lines


def cmd_expansion(args):
    exp = macaulay_expansion(args.a, args.d)
    data = {
        "a": args.a,
        "d": args.d,
        "terms": [list(t) for t in exp.terms],
        "text": f"{args.a} = {exp}",
    }
    lines = [data["text"]]
    if args.growth:
        data["growth"] = macaulay_growth(args.a, args.d)
        lines.append(f"{args.a}^<{args.d}> = {data['growth']}")
    return data, lines


def cmd_betti(args):
    ideal = _load(args.ideal, MonomialIdeal, "ideal file")
    table = bruteforce_betti_table(ideal) if args.oracle else ek_betti_table(ideal)
    return table, [table.to_text()]


def cmd_verify_grid(args) -> int:
    t0 = time.perf_counter()
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
    print(f"{passed}/{total} cells passed in {time.perf_counter() - t0:.2f}s")
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
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="full invariant report for an ideal file")
    p.add_argument("ideal", help="ideal JSON file")
    p.add_argument("--oracle", action="store_true",
                   help="force the brute-force Betti engine")
    p.add_argument("--max-degree", type=_max_degree, default=8,
                   help="how far to print the Hilbert function (default 8, "
                        f"at most {CAPS['max-degree'].bound})")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lexify",
                       help="realize a Hilbert function by its lexsegment ideal")
    p.add_argument("spec", help="Hilbert function spec JSON file")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="ambient variable count")
    p.add_argument("--out", help="write the ideal as JSON to this path")
    p.set_defaults(func=cmd_lexify)

    p = sub.add_parser("expansion", help="Macaulay binomial expansion of a in degree d")
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--growth", action="store_true",
                   help="also print the growth bound a^<d>")
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("betti", help="Betti table of an ideal file")
    p.add_argument("ideal", help="ideal JSON file")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force engine (works for non-stable ideals)")
    p.set_defaults(func=cmd_betti)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-grid",
                       help="construct and verify every (r, s) in a grid")
    p.add_argument("--rmax", type=_positive_int, default=12)
    p.add_argument("--smax", type=_positive_int, default=12)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check Betti tables on cells with n <= 4")
    p.set_defaults(func=cmd_verify_grid)

    return parser


def main(argv=None) -> int:
    # Every integer read or printed is exact.  CPython 3.10.7 and later cap
    # decimal conversion at 4300 digits by default, which would reject a long
    # argument as "not an integer" or end a long Hilbert-function value or
    # exponent in a traceback; lift it for the run, parsing included, and put
    # it back even when the parser exits.
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no cap to lift
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    except BrokenPipeError:  # the reader left; stdout on devnull, the last flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    try:
        report = args.func(args)
        if args.command == "verify-grid":
            return report
        data, lines = report
        out = getattr(args, "out", None)
        if out:
            try:
                with open(out, "w") as fh:
                    fh.write(_json(data["ideal"]) + "\n")
            except OSError as exc:
                raise _UsageError(f"cannot write {out}: {exc}")
            lines.append(f"ideal written to {out}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotOSequenceError as exc:
        where = "" if exc.degree is None else f" (first violation at degree {exc.degree})"
        print(f"error: {exc}{where}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ConstructionError, AssertionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except LexsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(_json(data) if args.format == "json" else "\n".join(lines))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
