import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import count_calls, random_edge_ideal
from lexseg import cli, hilbert, macaulay, monomials
from lexseg.cli import main
from lexseg.errors import CAPS, LexsegError
from lexseg.monomials import Monomial

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_non_utf8(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    return str(path)


def write_deeply_nested(tmp_path):
    # deeper than the JSON parser's recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    return str(path)


def write_ideal(tmp_path, name, n, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "generators": rows}))
    return str(path)


class TestConstruct:
    def test_example_output(self, capsys):
        code, out, _ = run(capsys, "construct", "--r", "4", "--s", "2")
        assert code == 0
        assert "branch: second-step" in out
        assert "predicted: n=6 reg=4 h-degree=2 dim=1 depth=0" in out
        assert "measured:  n=6 reg=4 h-degree=2 dim=1 depth=0" in out
        assert ". 16 47 63 46 18 3" in out

    def test_trivial_pair(self, capsys):
        code, out, _ = run(capsys, "construct", "--r", "1", "--s", "1")
        assert code == 0
        assert "x1^2" in out

    def test_bad_parameters_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["construct", "--r", "0", "--s", "2"])
        assert err.value.code == 2

    def test_writes_ideal_file(self, capsys, tmp_path):
        out_path = tmp_path / "ideal.json"
        code, _, _ = run(capsys, "construct", "--r", "1", "--s", "2",
                         "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data == {"n": 2, "generators": [[2, 0], [1, 1]]}

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "construct", "--r", "1", "--s", "2",
                             "--out", str(target))
        assert code == 2
        assert out == "" and f"cannot write {target}" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "construct", "--r", "2", "--s", "1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["branch"] == "second-step"
        assert data["predicted"] == data["measured"]


class TestAnalyze:
    def test_fixture_report(self, capsys, tmp_path, remark3):
        path = write_ideal(tmp_path, "r3.json", 5,
                           [list(g.exponents) for g in remark3.gens])
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "dim S/I: 2" in out
        assert "depth S/I: 0" in out
        assert "regularity: 6" in out
        assert "h-degree: 1" in out
        assert "lexsegment: yes" in out

    def test_zero_ideal_full_ring(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "zero.json", 3, [])
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "regularity: 0" in out
        assert "dim S/I: 3" in out
        assert "stable: n/a" in out

    def test_unit_ideal_exit_3(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "unit.json", 2, [[0, 0]])
        code, _, err = run(capsys, "analyze", path)
        assert code == 3
        assert err == "error: the zero ring has no Hilbert series\n"

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
        assert code == 2

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        for path in (write_non_utf8(tmp_path), write_deeply_nested(tmp_path)):
            code, out, err = run(capsys, "analyze", path)
            assert code == 2, path
            assert out == "" and "not valid JSON" in err

    def test_non_int_values_exit_2(self, capsys, tmp_path):
        for n, rows in ((2, [[1.5, 0], [0, True]]), (2.0, [[1, 0]])):
            path = tmp_path / "coerced.json"
            path.write_text(json.dumps({"n": n, "generators": rows}))
            code, out, err = run(capsys, "analyze", str(path))
            assert code == 2, (n, rows)
            assert out == "" and "not a valid ideal file" in err

    @pytest.mark.parametrize("bad", [
        [1.0, 0], [True, 0], ["1", 0], [None, 0], [-1, 0], [1, 0, 0],
        7, "10", None, {"0": 1}],
        ids=["float", "bool", "string", "null", "negative", "wrong-length",
             "int-not-list", "string-not-list", "null-not-list", "object-not-list"])
    def test_malformed_generator_exit_2(self, capsys, tmp_path, bad):
        # main returns 2 instead of raising, so no traceback reaches the user
        path = write_ideal(tmp_path, "bad.json", 2, [[0, 1], bad])
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "not a valid ideal file" in err

    def test_row_length_mismatch_exit_2(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "short.json", 3, [[1, 0, 0], [0, 1]])
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "not a valid ideal file" in err

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--oracle"], ["betti"], ["betti", "--oracle"]],
        ids=["analyze", "analyze-oracle", "betti", "betti-oracle"])
    def test_exponent_above_maxsize_exit_2(self, tmp_path, argv):
        # a fresh process, so that an escaping exception would show as a traceback
        path = write_ideal(tmp_path, "huge.json", 2, [[sys.maxsize + 1, 0], [1, 1]])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "lexseg.cli", argv[0], path,
                               *argv[1:]], env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stdout == "" and "Traceback" not in done.stderr
        assert f"exponent above {sys.maxsize} in ({sys.maxsize + 1}, 0)" in done.stderr

    def test_printed_slack_matches_json(self, capsys, tmp_path, remark3):
        path = write_ideal(tmp_path, "r3.json", 5,
                           [list(g.exponents) for g in remark3.gens])
        _, text, _ = run(capsys, "analyze", path)
        _, out, _ = run(capsys, "analyze", path, "--format", "json")
        slack = json.loads(out)["inequality_slack"]
        line = next(x for x in text.splitlines()
                    if x.startswith("(dim - depth) - (h-degree - regularity) = "))
        assert line.split(" = ")[1] == f"{slack} >= 0"

    def test_negative_slack_printed_as_such(self, capsys, tmp_path, monkeypatch):
        real = cli._analyze_data

        def fake(*args):
            return {**real(*args), "inequality_slack": -1}

        monkeypatch.setattr(cli, "_analyze_data", fake)
        path = write_ideal(tmp_path, "x1.json", 2, [[1, 0]])
        _, out, _ = run(capsys, "analyze", path)
        assert "(dim - depth) - (h-degree - regularity) = -1 < 0" in out

    def test_negative_max_degree_exit_2(self, capsys, tmp_path):
        # the bound 10^4 holds at parse time too, before any value is listed
        path = write_ideal(tmp_path, "x1.json", 2, [[1, 0]])
        for value in ("-1", "10001", "1000000000"):
            with pytest.raises(SystemExit) as err:
                main(["analyze", path, "--max-degree", value])
            assert err.value.code == 2
            assert capsys.readouterr().out == ""
        code, out, _ = run(capsys, "analyze", path, "--max-degree", "0")
        assert code == 0
        assert "hilbert function: 1, ..." in out
        code, out, _ = run(capsys, "analyze", path, "--max-degree", "10000")
        assert code == 0
        assert "hilbert function: " + "1, " * 10001 + "..." in out

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no decimal conversion cap before CPython 3.10.7")
    def test_values_past_the_decimal_digit_cap(self, capsys, tmp_path):
        # (x1) in 1100 variables: H(1100) = C(2198, 1100) has 660 digits, over
        # a conversion cap of 640, the least CPython takes; main lifts the
        # cap for its run and puts it back
        path = write_ideal(tmp_path, "x1.json", 1100, [[1] + [0] * 1099])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, "analyze", path, "--max-degree", "1100")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert f", {math.comb(2198, 1100)}, ..." in out

    @pytest.mark.parametrize("argv, expected", [
        (["expansion", "--a", str(10**699), "--d", "1", "--growth"], 0),
        (["construct", "--r", str(10**699), "--s", "1"], 3),
        (["construct", "--r", "x" * 700, "--s", "1"], 2)],
        ids=["expansion", "construct-generators-cap", "not-an-integer"])
    def test_arguments_past_the_decimal_digit_cap(self, capsys, argv, expected):
        # a 700-digit argument, over a conversion cap of 640, is an integer:
        # main lifts the cap before the arguments are parsed, and puts it back
        # even when the parser exits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert code == expected, err
        assert "Traceback" not in err
        if expected == 0:
            assert out.startswith(f"{10**699} = C({10**699},1)")
        elif expected == 3:
            assert "minimal generators, cap is" in err and out == ""

    def test_json_round_trips(self, capsys, tmp_path, example2):
        path = write_ideal(tmp_path, "e2.json", 6,
                           [list(g.exponents) for g in example2.gens])
        code, out1, _ = run(capsys, "analyze", path, "--format", "json")
        assert code == 0
        data = json.loads(out1)
        again = tmp_path / "again.json"
        again.write_text(json.dumps(data["ideal"]))
        code, out2, _ = run(capsys, "analyze", str(again), "--format", "json")
        assert code == 0
        assert out1 == out2

    def test_text_output_byte_stable(self, capsys, tmp_path, example2):
        path = write_ideal(tmp_path, "e2.json", 6,
                           [list(g.exponents) for g in example2.gens])
        _, out1, _ = run(capsys, "analyze", path)
        _, out2, _ = run(capsys, "analyze", path)
        assert out1 == out2


class TestLexify:
    def test_realizes_fixture(self, capsys, tmp_path):
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps({"initial": [1, 6, 5], "tail": {"constant": 5}}))
        out_path = tmp_path / "ideal.json"
        code, out, _ = run(capsys, "lexify", str(spec), "--n", "6",
                           "--out", str(out_path))
        assert code == 0
        assert "20 minimal generators" in out
        assert "1, 6, 5, 5, 5" in out
        data = json.loads(out_path.read_text())
        assert len(data["generators"]) == 20

    @pytest.mark.parametrize("c, top, digest", [
        (10**4, 140,
         "8e4a54c036d68805392f8610d347ff4bc7fbb237d120f87a7f7ddc9a8fb8ee45"),
        (10**5, 446,
         "ec0a3e0be9fe021f8d326acf230731f0dcb0448fad09f6acd683b08eb9ebc316")])
    def test_long_constant_tails_byte_stable(self, capsys, tmp_path, c, top, digest):
        # H(k) = C(k+2, 2) through degree top, then c: the capped horizon walk
        # still realizes both, stdout pinned by its SHA-256
        initial = [math.comb(k + 2, 2) for k in range(top + 1)]
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps({"initial": initial, "tail": {"constant": c}}))
        code, out, _ = run(capsys, "lexify", str(spec), "--n", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_non_o_sequence_exit_3(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"initial": [1, 2, 4], "tail": {"constant": 4}}))
        code, _, err = run(capsys, "lexify", str(spec), "--n", "2")
        assert code == 3
        assert "degree 1" in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        for path in (write_non_utf8(tmp_path), write_deeply_nested(tmp_path)):
            code, out, err = run(capsys, "lexify", path, "--n", "2")
            assert code == 2, path
            assert out == "" and "not valid JSON" in err

    def test_non_int_values_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "coerced.json"
        spec.write_text(json.dumps({"initial": [1, 2.7, True],
                                    "tail": {"constant": 1}}))
        code, out, err = run(capsys, "lexify", str(spec), "--n", "2")
        assert code == 2
        assert out == "" and "not a valid Hilbert function spec" in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps({"initial": [1, 6, 5], "tail": {"constant": 5}}))
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "lexify", str(spec), "--n", "6",
                             "--out", str(target))
        assert code == 2
        assert out == "" and f"cannot write {target}" in err

    def test_non_minimal_generators_exit_4(self, capsys, tmp_path, monkeypatch):
        # a realization bug that repeats a generator in place of the next,
        # keeping the row count, fails the strict lex order of the walk's
        # rows, reported as a verification failure, on lexify and on
        # construct's first step, which lists its rows by the same walk
        real = monomials._lex_walk

        def repeating(*args):
            walk = real(*args)
            first = next(walk)
            yield from (first, first)
            next(walk, None)  # the row the repeat stands in for
            yield from walk

        monkeypatch.setattr(monomials, "_lex_walk", repeating)
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps({"initial": [1, 6, 5], "tail": {"constant": 5}}))
        for argv in (["lexify", str(spec), "--n", "6"],
                     ["construct", "--r", "2", "--s", "4"]):
            code, out, err = run(capsys, *argv)
            assert code == 4, argv
            assert out == "" and "rows are not strictly lex-descending" in err

    def test_over_generator_cap_exit_3(self, capsys, tmp_path, monkeypatch):
        # H = dim S_k through degree 8, then 0: every one of the C(38, 9)
        # degree-9 monomials in 30 variables is a generator.  The cap is
        # arithmetic, so a walk here would be the bug; it exits 4, not 3.
        def no_walk(*args):
            raise AssertionError("walked an over-cap degree")

        monkeypatch.setattr(monomials, "_lex_walk", no_walk)
        monkeypatch.setattr(macaulay, "_lex_walk", no_walk)
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({"initial": [math.comb(29 + k, k) for k in range(9)],
                                    "tail": {"constant": 0}}))
        code, out, err = run(capsys, "lexify", str(spec), "--n", "30")
        assert code == 3
        assert out == ""
        assert f"{math.comb(38, 9)} minimal generators, cap is {CAPS['generators'].bound}" in err

    def test_generator_cap_is_inclusive(self, capsys, tmp_path, monkeypatch):
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps({"initial": [1, 6, 5], "tail": {"constant": 5}}))
        monkeypatch.setattr(CAPS["generators"], "bound", 20)
        code, out, _ = run(capsys, "lexify", str(spec), "--n", "6")
        assert code == 0 and "20 minimal generators" in out
        monkeypatch.setattr(CAPS["generators"], "bound", 19)
        code, out, err = run(capsys, "lexify", str(spec), "--n", "6")
        assert code == 3 and out == ""
        assert "20 minimal generators, cap is 19" in err

    def test_whole_ring(self, capsys, tmp_path):
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"initial": [1], "tail": {"constant": 1}}))
        code, out, _ = run(capsys, "lexify", str(spec), "--n", "1")
        assert code == 0
        assert "0 minimal generators" in out


class TestCapsTable:
    def test_readme_states_every_cap(self):
        # the README's caps table has one row per cap of `errors.CAPS`, with
        # its bound (written 10^k or c·10^k), its error and its exit code
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Caps\n", 1)[1]
        table = next(b for b in section.split("\n\n") if b.startswith("| cap |"))
        rows = {}
        for line in table.splitlines()[2:]:
            name, bound, _, error, code = map(str.strip, line.strip("|").split("|"))
            rows[name.strip("`")] = bound, error, int(code)
        assert set(rows) == set(CAPS)
        for name, cap in CAPS.items():
            bound, error, code = rows[name]
            factor, power = re.fullmatch(r"(?:(\d+)·)?10\^(\d+)", bound).groups()
            assert int(factor or 1) * 10 ** int(power) == cap.bound, name
            if cap.error is None:  # the parser raises its own usage error
                assert "usage error" in error and code == 2, name
            else:
                assert f"`{cap.error.__name__}`" in error, name
                assert issubclass(cap.error, LexsegError) and code == 3, name


class TestEntryCap:
    @pytest.mark.parametrize("argv, entries", [
        (["construct", "--r", "2", "--s", "4"], 9),
        (["construct", "--r", "4", "--s", "2"], 120),
        (["lexify", "{input}", "--n", "6"], 120)],
        ids=["construct-first-step", "construct-second-step", "lexify"])
    def test_over_entry_cap_exit_3(self, capsys, tmp_path, monkeypatch, argv, entries):
        # entries = generators x variables; the cap is inclusive and arithmetic,
        # so listing a row over it would be the bug (it exits 4, not 3); the
        # under-cap run shows the patched lister is the one `_realize` calls
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps(GOLDEN["inputs"]["hf-example2"]))
        argv = [str(spec) if a == "{input}" else a for a in argv]
        monkeypatch.setattr(CAPS["entries"], "bound", entries)
        calls = count_calls(monkeypatch, "_lex_segment")
        code, _, _ = run(capsys, *argv)
        assert code == 0 and calls == {"_lex_segment": 1}

        def no_rows(*args):
            raise AssertionError("listed rows over the entry cap")

        monkeypatch.setattr(CAPS["entries"], "bound", entries - 1)
        monkeypatch.setattr(macaulay, "_lex_segment", no_rows)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert f"({entries} entries), cap is {entries - 1}" in err


class TestBettiTableCap:
    def test_lexify_refused_before_any_row(self, capsys, tmp_path, monkeypatch):
        # H = 1, 2, 2, ... in 3 variables is (x1, x2^2): 2 rows of pd + 1 = 3
        # entries, where 2 rows of n + 1 would be 8; past that bound a walk
        # that keeps no row decides, so the refusal lists none
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps({"initial": [1, 2], "tail": {"constant": 2}}))
        monkeypatch.setattr(CAPS["betti-table"], "bound", 6)
        calls = count_calls(monkeypatch, "_lex_segment")
        code, out, _ = run(capsys, "lexify", str(spec), "--n", "3")
        assert code == 0 and calls == {"_lex_segment": 1}  # the lister `_realize` calls
        assert "generators: x1, x2^2" in out

        def no_rows(*args):
            raise AssertionError("listed rows over the Betti-table cap")

        monkeypatch.setattr(CAPS["betti-table"], "bound", 5)
        monkeypatch.setattr(macaulay, "_lex_segment", no_rows)
        code, out, err = run(capsys, "lexify", str(spec), "--n", "3")
        assert code == 3 and out == ""
        assert "the Betti table would have 6 entries (2 rows of 3), cap is 5" in err


class TestExpansion:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "expansion", "--a", "5", "--d", "2", "--growth")
        assert code == 0
        assert "5 = C(3,2) + C(2,1)" in out
        assert "5^<2> = 7" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "expansion", "--a", "5", "--d", "4",
                           "--growth", "--format", "json")
        data = json.loads(out)
        assert data["terms"] == [[5, 4]]
        assert data["growth"] == 6

    def test_rejects_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["expansion", "--a", "0", "--d", "2"])
        assert err.value.code == 2


class TestBetti:
    def test_stable_ideal_text(self, capsys, tmp_path, example2):
        path = write_ideal(tmp_path, "e2.json", 6,
                           [list(g.exponents) for g in example2.gens])
        code, out, _ = run(capsys, "betti", path)
        assert code == 0
        assert out.splitlines()[0] == "1  .  .  .  .  . ."

    def test_non_stable_needs_oracle(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "ns.json", 2, [[0, 2]])
        code, _, err = run(capsys, "betti", path)
        assert code == 3
        assert "--oracle" in err
        code, out, _ = run(capsys, "betti", path, "--oracle")
        assert code == 0
        assert out.splitlines()[0] == "1 ."

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        for path in (write_non_utf8(tmp_path), write_deeply_nested(tmp_path)):
            code, out, err = run(capsys, "betti", path)
            assert code == 2, path
            assert out == "" and "not valid JSON" in err

    def test_oracle_matches_ek_json(self, capsys, tmp_path, example2):
        path = write_ideal(tmp_path, "e2.json", 6,
                           [list(g.exponents) for g in example2.gens])
        _, out1, _ = run(capsys, "betti", path, "--format", "json")
        _, out2, _ = run(capsys, "betti", path, "--oracle", "--format", "json")
        assert json.loads(out1) == json.loads(out2)


class TestVerifyGrid:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify-grid", "--rmax", "2", "--smax", "2")
        assert code == 0
        assert "4/4 cells passed" in out

    def test_oracle_flag(self, capsys):
        code, out, _ = run(capsys, "verify-grid", "--rmax", "2", "--smax", "1",
                           "--oracle")
        assert code == 0
        assert "oracle=ok" in out


class TestGoldenOutput:
    """stdout pinned byte for byte; verify-grid's elapsed time is masked."""

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
    def test_stdout_unchanged(self, capsys, tmp_path, case):
        self._check(capsys, tmp_path, case)

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["name"])
    def test_no_request_runs_the_pivot(self, capsys, tmp_path, monkeypatch, case):
        # every series the CLI prints is read off a Betti table
        def forbidden(gens):
            raise AssertionError("a CLI request ran the pivot recursion")

        monkeypatch.setattr(hilbert, "_kpoly_pivot", forbidden)
        self._check(capsys, tmp_path, case)

    @staticmethod
    def _check(capsys, tmp_path, case):
        path = tmp_path / "input.json"
        if case["input"]:
            path.write_text(json.dumps(GOLDEN["inputs"][case["input"]]))
        code, out, _ = run(capsys, *(str(path) if a == "{input}" else a
                                     for a in case["argv"]))
        assert code == 0
        if "stdout_json" in case:
            assert out == json.dumps(case["stdout_json"], indent=2) + "\n"
        else:
            out = re.sub(r"in \d+\.\d\ds$", "in <time>s", out, flags=re.M)
            assert out == "\n".join(case["stdout"]) + "\n"


class TestOut:
    """`--out` writes the ideal file; text output says so, JSON output is
    only the report."""

    ARGV = {"construct": (["construct", "--r", "4", "--s", "2"], None),
            "lexify": (["lexify", "{input}", "--n", "6"], "hf-example2")}

    def _run(self, capsys, tmp_path, command, *extra):
        argv, input_name = self.ARGV[command]
        spec = tmp_path / "input.json"
        if input_name:
            spec.write_text(json.dumps(GOLDEN["inputs"][input_name]))
        target = tmp_path / "ideal.json"
        code, out, err = run(capsys, *(str(spec) if a == "{input}" else a for a in argv),
                             "--out", str(target), *extra)
        assert code == 0, err
        return out, target

    @pytest.mark.parametrize("command", ["construct", "lexify"])
    def test_text_ends_with_written_line(self, capsys, tmp_path, command):
        out, target = self._run(capsys, tmp_path, command)
        assert out.splitlines()[-1] == f"ideal written to {target}"
        argv, _ = self.ARGV[command]
        _, golden_out, _ = run(capsys, *(str(tmp_path / "input.json") if a == "{input}"
                                         else a for a in argv))
        assert out == golden_out + f"ideal written to {target}\n"

    @pytest.mark.parametrize("command", ["construct", "lexify"])
    def test_json_is_only_the_report(self, capsys, tmp_path, command):
        out, target = self._run(capsys, tmp_path, command, "--format", "json")
        data = json.loads(out)
        assert out == json.dumps(data, indent=2) + "\n"
        assert target.read_text() == json.dumps(data["ideal"], indent=2) + "\n"


class TestMeasuredOnce:
    # without a closed-form table the series is read off the oracle's table,
    # and its dimension is the denominator exponent; no pivot recursion and
    # no cover search
    ORACLE = {"kpolynomial": 0, "bruteforce_betti_table": 1, "krull_dimension": 0,
              "_ek_table": 0}
    # a stable ideal's series comes from its one EK table, read off the walk
    # that proved it stable, and its dimension from the stable closed form
    EK = {"kpolynomial": 0, "_ek_table": 1, "krull_dimension": 0,
          "ek_betti_table": 0}
    # the stability facts, strongest first: example2 is lexsegment, so one
    # walk decides all three; a non-stable ideal fails all three walks
    LEX_WALK = {"_lexsegment_counts": 1, "_prefixes_cover": 0}
    EVERY_WALK = {"_lexsegment_counts": 1, "_prefixes_cover": 2}
    # a realized ideal's rows come from one lex walk, minimal and
    # lex-descending by construction, so neither the constructor's trie check
    # nor the EK table's stability gate runs and no certificate walks them
    # again; the walk's tallies feed the table, so no other pass over the
    # rows serves it
    CERTIFIED = {"kpolynomial": 0, "_ek_table": 1, "_lex_walk": 1,
                 "_lexsegment_counts": 0, "is_lexsegment": 0, "ek_betti_table": 0,
                 "krull_dimension": 0, "is_stable": 0, "_undivided": 0}

    @pytest.mark.parametrize("ideal, flags, expected", [
        ("example2", [], {**EK, **LEX_WALK}),
        ("non-stable", [], {**ORACLE, **EVERY_WALK}),
        ("example2", ["--oracle"], {**ORACLE, **LEX_WALK})],
        ids=["stable", "non-stable", "oracle"])
    def test_analyze_one_series_dimension_and_stability_check(
            self, capsys, tmp_path, monkeypatch, ideal, flags, expected):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(GOLDEN["inputs"][ideal]))
        calls = count_calls(monkeypatch, *expected)
        code, _, _ = run(capsys, "analyze", str(path), *flags)
        assert code == 0
        assert {name: calls[name] for name in expected} == expected

    @pytest.mark.parametrize("n, rows, strong_args, facts, engine", [
        (3, [[1, 0, 0], [0, 2, 0], [0, 1, 1]], [], "yes yes yes", "eliahou-kervaire"),
        (3, [[2, 0, 0], [1, 1, 0], [0, 2, 0]], [True], "yes yes no",
         "eliahou-kervaire"),
        # x2 -> x1 takes x2*x3 to x1*x3, outside: stable, not strongly
        (3, [[2, 0, 0], [1, 1, 0], [0, 2, 0], [0, 1, 1]], [True, False],
         "yes no no", "eliahou-kervaire"),
        (3, [[0, 2, 0], [1, 1, 1], [0, 0, 3]], [True, False], "no no no", "oracle")],
        ids=["lexsegment", "strongly-stable", "stable", "non-stable"])
    def test_analyze_walks_strongest_first(self, capsys, tmp_path, monkeypatch, n,
                                           rows, strong_args, facts, engine):
        # each walk runs at most once, and the first that passes ends the search
        path = write_ideal(tmp_path, "ideal.json", n, rows)
        real = monomials._prefixes_cover
        walks = []

        def recorded(rows, strong):
            walks.append(strong)
            return real(rows, strong)

        monkeypatch.setattr(monomials, "_prefixes_cover", recorded)
        calls = count_calls(monkeypatch, "_lexsegment_counts")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert (calls["_lexsegment_counts"], walks) == (1, strong_args)
        stable, strongly, lexseg = facts.split()
        assert (f"stable: {stable}   strongly stable: {strongly}   "
                f"lexsegment: {lexseg}\n") in out
        assert f"betti table (engine: {engine}):" in out

    def test_analyze_box_cap_before_any_series(self, capsys, tmp_path, monkeypatch):
        # 45 edges on 21 vertices: not stable, and the oracle's box of 2^21
        # cells is over the cap, so the request stops before any series
        ideal = random_edge_ideal(random.Random(2), 21)
        assert len(ideal.exponent_rows) == 45
        path = write_ideal(tmp_path, "edges.json", 21, ideal.to_json_dict()["generators"])
        calls = count_calls(monkeypatch, "kpolynomial")
        code, out, err = run(capsys, "analyze", path)
        assert (code, out) == (3, "")
        assert err == "error: multidegree box has 2097152 cells, cap is 1000000\n"
        assert calls["kpolynomial"] == 0

    @pytest.mark.parametrize("n, rows, code, expected", [
        (6, GOLDEN["inputs"]["example2"]["generators"], 0,
         {"_lexsegment_counts": 1, "_prefixes_cover": 0, "_ek_table": 1}),
        (3, [[2, 0, 0], [1, 1, 0], [0, 2, 0], [0, 1, 1]], 0,
         {"_lexsegment_counts": 1, "_prefixes_cover": 1, "_ek_table": 1}),
        (3, [[0, 2, 0], [1, 1, 1], [0, 0, 3]], 3,
         {"_lexsegment_counts": 1, "_prefixes_cover": 1, "_ek_table": 0})],
        ids=["lexsegment", "stable", "non-stable"])
    def test_betti_tries_the_lexsegment_walk_first(self, capsys, tmp_path, monkeypatch,
                                                   n, rows, code, expected):
        # a lexsegment ideal's table is read off the lexsegment walk; the
        # stable prefix walk runs only when that walk fails
        path = write_ideal(tmp_path, "ideal.json", n, rows)
        calls = count_calls(monkeypatch, *expected)
        assert run(capsys, "betti", path)[0] == code
        assert {name: calls[name] for name in expected} == expected

    def test_lexify_one_series(self, capsys, tmp_path, monkeypatch):
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps(GOLDEN["inputs"]["hf-example2"]))
        calls = count_calls(monkeypatch, *self.CERTIFIED)
        code, _, _ = run(capsys, "lexify", str(spec), "--n", "6")
        assert code == 0
        assert {name: calls[name] for name in self.CERTIFIED} == self.CERTIFIED

    def test_verify_grid_oracle_one_table_per_cell(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, *self.CERTIFIED)
        code, out, _ = run(capsys, "verify-grid", "--rmax", "2", "--smax", "2",
                           "--oracle")
        assert code == 0
        assert out.count("oracle=ok") == 4
        cells = {name: 4 * count for name, count in self.CERTIFIED.items()}
        assert {name: calls[name] for name in cells} == cells


class TestRowsOnly:
    @pytest.mark.parametrize("argv, input_name", [
        (["construct", "--r", "4", "--s", "2"], None),
        (["lexify", "{input}", "--n", "6"], "hf-example2"),
        (["analyze", "{input}"], "example2"),
        (["analyze", "{input}"], "non-stable"),
        (["analyze", "{input}", "--oracle"], "example2")],
        ids=["construct", "lexify", "analyze", "analyze-non-stable", "analyze-oracle"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cli_wraps_no_monomial(self, capsys, tmp_path, monkeypatch, argv,
                                   input_name, fmt):
        # generator text comes from the exponent rows, not from `ideal.gens`
        path = tmp_path / "input.json"
        if input_name:
            path.write_text(json.dumps(GOLDEN["inputs"][input_name]))
        wrapped = []
        real = Monomial.__init__
        monkeypatch.setattr(Monomial, "__init__",
                            lambda self, expo: wrapped.append(real(self, expo)))
        code, out, _ = run(capsys, *(str(path) if a == "{input}" else a for a in argv),
                           "--format", fmt)
        assert code == 0 and "x1" in out
        assert wrapped == []


class TestNoEnumeration:
    @pytest.mark.parametrize("ideal, flags", [
        ("example2", []), ("non-stable", []), ("example2", ["--oracle"])],
        ids=["stable", "non-stable", "oracle"])
    def test_analyze_reads_the_series(self, capsys, tmp_path, no_enumeration,
                                      ideal, flags):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(GOLDEN["inputs"][ideal]))
        code, out, err = run(capsys, "analyze", str(path), *flags)
        assert code == 0, err
        assert "lexsegment: " in out


class TestImport:
    def test_no_numpy_or_numba(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, lexseg.cli; "
                 "print(sorted({'numpy', 'numba'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestClosedPipe:
    def test_reader_closing_early_exits_1_quietly(self, tmp_path):
        # H = C(k+2, 2) through degree 61, then constant 2000: 6,512
        # generators, a report of about 0.5 MB, far more than a pipe holds
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps({"initial": [math.comb(k + 2, 2) for k in range(62)],
                                    "tail": {"constant": 2000}}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "lexseg.cli", "lexify", str(spec), "--n", "3",
             "--format", "json"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()  # the reader leaves after one line, as `head -1` does
        err = proc.stderr.read()
        proc.stderr.close()
        assert first == b"{\n"
        assert (proc.wait(timeout=60), err) == (1, b"")
