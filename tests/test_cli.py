import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import count_calls
from lexseg import cli, macaulay
from lexseg.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_non_utf8(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00bad")
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

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
        assert code == 2

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", write_non_utf8(tmp_path))
        assert code == 2
        assert out == "" and "not valid JSON" in err

    def test_non_int_values_exit_2(self, capsys, tmp_path):
        for n, rows in ((2, [[1.5, 0], [0, True]]), (2.0, [[1, 0]])):
            path = tmp_path / "coerced.json"
            path.write_text(json.dumps({"n": n, "generators": rows}))
            code, out, err = run(capsys, "analyze", str(path))
            assert code == 2, (n, rows)
            assert out == "" and "not a valid ideal file" in err

    def test_row_length_mismatch_exit_2(self, capsys, tmp_path):
        path = write_ideal(tmp_path, "short.json", 3, [[1, 0, 0], [0, 1]])
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "not a valid ideal file" in err

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
        path = write_ideal(tmp_path, "x1.json", 2, [[1, 0]])
        with pytest.raises(SystemExit) as err:
            main(["analyze", path, "--max-degree", "-1"])
        assert err.value.code == 2
        code, out, _ = run(capsys, "analyze", path, "--max-degree", "0")
        assert code == 0
        assert "hilbert function: 1, ..." in out

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

    def test_non_o_sequence_exit_3(self, capsys, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"initial": [1, 2, 4], "tail": {"constant": 4}}))
        code, _, err = run(capsys, "lexify", str(spec), "--n", "2")
        assert code == 3
        assert "degree 1" in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "lexify", write_non_utf8(tmp_path), "--n", "2")
        assert code == 2
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
        # a realization bug that repeats a generator fails the constructor's
        # minimality check, reported as a verification failure
        from lexseg import macaulay
        real = macaulay.lex_unrank
        monkeypatch.setattr(macaulay, "lex_unrank",
                            lambda n, d, rank: real(n, d, 0))
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps({"initial": [1, 6, 5], "tail": {"constant": 5}}))
        code, out, err = run(capsys, "lexify", str(spec), "--n", "6")
        assert code == 4
        assert out == "" and "generators were not minimal" in err

    def test_whole_ring(self, capsys, tmp_path):
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"initial": [1], "tail": {"constant": 1}}))
        code, out, _ = run(capsys, "lexify", str(spec), "--n", "1")
        assert code == 0
        assert "0 minimal generators" in out


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
        code, out, err = run(capsys, "betti", write_non_utf8(tmp_path))
        assert code == 2
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


class TestMeasuredOnce:
    @pytest.mark.parametrize("ideal, flags", [
        ("example2", []), ("non-stable", []), ("example2", ["--oracle"])],
        ids=["stable", "non-stable", "oracle"])
    def test_analyze_one_series_dimension_and_stability_check(
            self, capsys, tmp_path, monkeypatch, ideal, flags):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(GOLDEN["inputs"][ideal]))
        calls = count_calls(monkeypatch, "kpolynomial", "krull_dimension", "is_stable")
        code, _, _ = run(capsys, "analyze", str(path), *flags)
        assert code == 0
        assert calls == {"kpolynomial": 1, "krull_dimension": 1, "is_stable": 1}

    def test_lexify_one_series(self, capsys, tmp_path, monkeypatch):
        spec = tmp_path / "hf.json"
        spec.write_text(json.dumps(GOLDEN["inputs"]["hf-example2"]))
        calls = count_calls(monkeypatch, "kpolynomial")
        code, _, _ = run(capsys, "lexify", str(spec), "--n", "6")
        assert code == 0
        assert calls == {"kpolynomial": 1}

    def test_verify_grid_oracle_one_table_per_cell(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "ek_betti_table")
        code, out, _ = run(capsys, "verify-grid", "--rmax", "2", "--smax", "2",
                           "--oracle")
        assert code == 0
        assert out.count("oracle=ok") == 4
        assert calls == {"ek_betti_table": 4}


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
