import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

from nlspectra import NonConvergenceError
from nlspectra.cli import _build_parser, main
from nlspectra.oracle import oracle_closed_form_d1_a0, oracle_drummond_bigfloat
from nlspectra import HypTerm2F0


def run(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestEval:
    def test_zero_mode(self, capsys):
        assert run("eval", "--d", "3", "--alpha", "2", "--delta", "1", "--k", "0") == 0
        out = capsys.readouterr().out.strip()
        fields = out.split(",")
        assert fields[5] == "0" and fields[6] == "zero"

    def test_closed_form_value(self, capsys):
        assert run("eval", "--d", "1", "--alpha", "0", "--delta", "1", "--k", "10") == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[6] == "asymptotic"
        ref = float(oracle_closed_form_d1_a0(1.0, 10.0))
        assert abs(float(fields[5]) - ref) <= 1e-12 * abs(ref)

    def test_json_format(self, capsys):
        assert (
            run("eval", "--d", "2", "--alpha", "1", "--delta", "0.5", "--k", "3",
                "--format", "json") == 0
        )
        rec = json.loads(capsys.readouterr().out)
        assert rec["method"] == "maclaurin"
        assert rec["m"] == 9

    def test_alpha_out_of_range_exits_2(self, capsys):
        assert run("eval", "--d", "3", "--alpha", "5.1", "--delta", "1", "--k", "1") == 2

    def test_negative_k_exits_2(self):
        assert run("eval", "--d", "3", "--alpha", "2", "--delta", "1", "--k", "-1") == 2

    def test_m_beyond_exact_integers_printed_as_float(self, capsys):
        assert run("eval", "--d", "3", "--alpha", "2", "--delta", "1", "--k", "1e40") == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[3] == "1e+80"

    def test_infinite_m_printed(self, capsys):
        assert run("eval", "--d", "3", "--alpha", "2", "--delta", "1", "--k", "1e200") == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[3] == "inf"
        assert math.isfinite(float(fields[5])) and fields[6] == "asymptotic"

    def test_alpha_above_d_huge_horizon(self, capsys):
        assert run("eval", "--d", "1", "--alpha", "2.9", "--delta", "1e200", "--k", "1") == 0
        fields = capsys.readouterr().out.strip().split(",")
        lam = float(fields[5])
        assert abs(lam + 1.098991886799671e-20) <= 1e-12 * 1.098991886799671e-20

    def test_lambda_beyond_double_range_exits_2(self, capsys):
        assert run("eval", "--d", "1", "--alpha", "2.9", "--delta", "1", "--k", "1e300") == 2
        assert "exceeds the double range" in capsys.readouterr().err

    def test_kdelta_overflow_exits_2(self, capsys):
        # k*delta = inf is computed in logarithms, so only a lambda beyond
        # the double range (here ~ -1.1e569) exits 2
        assert run("eval", "--d", "3", "--alpha", "2", "--delta", "1e10", "--k", "1e300") == 0
        lam = float(capsys.readouterr().out.strip().split(",")[5])
        assert abs(lam + 1.8e-19) <= 1e-14 * 1.8e-19
        assert run("eval", "--d", "1", "--alpha", "2.9", "--delta", "1e10", "--k", "1e300") == 2
        assert "exceeds the double range" in capsys.readouterr().err

    def test_nonconvergence_exits_3(self, monkeypatch, capsys):
        import nlspectra.cli as climod

        def boom(params, k, tol):
            raise NonConvergenceError("forced")

        monkeypatch.setattr(climod, "lambda_hybrid", boom)
        assert run("eval", "--d", "3", "--alpha", "2", "--delta", "1", "--k", "1") == 3


class TestTable:
    def test_shape_3x3(self, tmp_path):
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "0", "--alpha-max", "2",
                "--alpha-steps", "3", "--kdelta-min", "1", "--kdelta-max", "3",
                "--kdelta-steps", "3", "--method", "both", "--out", str(out)) == 0
        )
        header, rows = read_csv(out)
        assert len(rows) == 9
        assert header[:3] == ["d", "alpha", "kdelta"]

    def test_both_methods_agree_at_switch(self, tmp_path):
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "3", "--alpha-min", "2", "--alpha-max", "2",
                "--alpha-steps", "1", "--kdelta-min", "6", "--kdelta-max", "6",
                "--kdelta-steps", "1", "--method", "both", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        mac = float(rows[0]["lambda_mac"])
        asy = float(rows[0]["lambda_asy"])
        assert abs(mac - asy) <= 1e-9 * abs(mac)

    def test_oracle_error_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "1", "--alpha-min", "0.5", "--alpha-max", "1.5",
                "--alpha-steps", "2", "--kdelta-min", "3", "--kdelta-max", "20",
                "--kdelta-steps", "2", "--method", "both", "--with-oracle",
                "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        for row in rows:
            kd = float(row["kdelta"])
            if kd <= 6.0:
                assert float(row["err_mac"]) <= 1e-11
            else:
                assert float(row["err_asy"]) <= 1e-11

    def test_error_columns_blank_without_oracle(self, tmp_path):
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "1", "--alpha-min", "0.5", "--alpha-max", "0.5",
                "--alpha-steps", "1", "--kdelta-min", "3", "--kdelta-max", "3",
                "--kdelta-steps", "1", "--method", "mac", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert rows[0]["err_mac"] == ""

    def test_bad_grid_exits_2(self, tmp_path):
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "0", "--alpha-max", "4",
                "--alpha-steps", "2", "--kdelta-min", "1", "--kdelta-max", "2",
                "--kdelta-steps", "2", "--out", str(out)) == 2
        )

    @pytest.mark.parametrize("method,columns", [
        ("mac", ["lambda_mac", "terms_mac", "err_mac"]),
        ("asy", ["lambda_asy", "terms_asy", "err_asy"]),
        ("both", ["lambda_mac", "terms_mac", "err_mac", "lambda_asy", "terms_asy", "err_asy"]),
        ("hybrid", ["lambda", "method", "terms", "err"]),
    ])
    def test_columns_per_method(self, tmp_path, method, columns):
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "1", "--alpha-max", "1",
                "--alpha-steps", "1", "--kdelta-min", "3", "--kdelta-max", "8",
                "--kdelta-steps", "2", "--method", method, "--out", str(out)) == 0
        )
        header, rows = read_csv(out)
        assert header == ["d", "alpha", "kdelta"] + columns
        assert all(len(row) == len(header) for row in rows)
        if method == "hybrid":
            assert [row["method"] for row in rows] == ["maclaurin", "asymptotic"]

    def test_maclaurin_overflow_cell(self, tmp_path):
        # (k*delta)^2 overflows: a best-effort NaN cell, not a traceback
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "3", "--alpha-min", "2", "--alpha-max", "2",
                "--alpha-steps", "1", "--kdelta-min", "1e200", "--kdelta-max", "1e200",
                "--kdelta-steps", "1", "--method", "mac", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert rows[0]["lambda_mac"] == "nan"

    def test_unwritable_out_exits_2(self, tmp_path):
        out = tmp_path / "nope" / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "0", "--alpha-max", "1",
                "--alpha-steps", "2", "--kdelta-min", "1", "--kdelta-max", "2",
                "--kdelta-steps", "2", "--out", str(out)) == 2
        )
        assert not (tmp_path / "nope").exists()


class TestSpectrum:
    def test_d2_kmax1_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        assert (
            run("spectrum", "--d", "2", "--alpha", "1", "--delta", "1",
                "--kmax", "1", "--out", str(out), "--jobs", "1") == 0
        )
        _, rows = read_csv(out)
        assert [row["m"] for row in rows] == ["0", "1", "2"]
        assert rows[0]["lambda"] == "0"

    def test_d1_closed_form_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        assert (
            run("spectrum", "--d", "1", "--alpha", "0", "--delta", "1",
                "--kmax", "3", "--out", str(out), "--jobs", "1") == 0
        )
        _, rows = read_csv(out)
        for row in rows[1:]:
            ref = float(oracle_closed_form_d1_a0(1.0, math.sqrt(int(row["m"]))))
            assert abs(float(row["lambda"]) - ref) <= 1e-12 * abs(ref)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        common = ["spectrum", "--d", "2", "--alpha", "1.5", "--delta", "1",
                  "--kmax", "6"]
        assert run(*common, "--out", str(a), "--jobs", "1") == 0
        assert run(*common, "--out", str(b), "--jobs", "4") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kmax_guard_exits_2(self, tmp_path):
        out = tmp_path / "s.csv"
        assert (
            run("spectrum", "--d", "2", "--alpha", "1", "--delta", "1",
                "--kmax", "5000", "--out", str(out)) == 2
        )

    def test_zero_jobs_exits_2(self, tmp_path):
        out = tmp_path / "s.csv"
        assert (
            run("spectrum", "--d", "2", "--alpha", "1", "--delta", "1",
                "--kmax", "1", "--out", str(out), "--jobs", "0") == 2
        )
        assert not out.exists()


class TestPhase:
    def test_single_point_matches_oracle(self, tmp_path):
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "1", "--beta", "1", "--order", "100",
                "--re-min", "8", "--re-max", "8", "--im-min", "0", "--im-max", "0",
                "--nx", "1", "--ny", "1", "--out", str(out)) == 0
        )
        header, rows = read_csv(out)
        assert header == ["re_z", "im_z", "re_T", "im_T"]
        ref = oracle_drummond_bigfloat(HypTerm2F0(1.0, 1.0, 8.0), 0, 100) - 1
        got = complex(float(rows[0]["re_T"]), float(rows[0]["im_T"]))
        assert abs(got - complex(ref)) <= 1e-10 * abs(complex(ref))

    def test_positive_axis_is_finite(self, tmp_path):
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "1", "--beta", "1", "--order", "60",
                "--re-min", "2", "--re-max", "20", "--im-min", "0", "--im-max", "0",
                "--nx", "4", "--ny", "1", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert math.isfinite(float(row["re_T"]))

    def test_grid_row_count_and_origin_nan(self, tmp_path):
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "1", "--beta", "1", "--order", "30",
                "--re-min", "-1", "--re-max", "1", "--im-min", "-1", "--im-max", "1",
                "--nx", "10", "--ny", "10", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert len(rows) == 100

    def test_origin_marked_nan(self, tmp_path):
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "1", "--beta", "1", "--order", "30",
                "--re-min", "-1", "--re-max", "1", "--im-min", "0", "--im-max", "0",
                "--nx", "3", "--ny", "1", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        origin = [r for r in rows if float(r["re_z"]) == 0.0][0]
        assert math.isnan(float(origin["re_T"]))

    def test_terminating_series_is_exact(self, tmp_path):
        # alpha = -1: T = 1 + a_1 = 1 + 1/z at every order >= 0
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "-1", "--beta", "1", "--order", "1",
                "--re-min", "-2", "--re-max", "2", "--im-min", "-1", "--im-max", "1",
                "--nx", "3", "--ny", "2", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            z = complex(float(row["re_z"]), float(row["im_z"]))
            got = complex(float(row["re_T"]), float(row["im_T"]))
            assert abs(got - 1 / z) <= 1e-15 * abs(1 / z)

    def test_infinite_alpha_gives_nan_rows(self, tmp_path):
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha=-inf", "--beta", "1", "--order", "10",
                "--re-min", "1", "--re-max", "2", "--im-min", "0", "--im-max", "1",
                "--nx", "2", "--ny", "2", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert len(rows) == 4
        assert all(math.isnan(float(r["re_T"])) and math.isnan(float(r["im_T"])) for r in rows)

    def test_order_guard_exits_2(self, tmp_path):
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "1", "--beta", "1", "--order", "100000",
                "--re-min", "0", "--re-max", "1", "--im-min", "0", "--im-max", "1",
                "--nx", "2", "--ny", "2", "--out", str(out)) == 2
        )


def test_cli_import_loads_no_oracle_or_pool():
    # mpmath (the oracles) and the process pool load only when a command needs them
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "import nlspectra.cli\n"
        "heavy = ('mpmath', 'concurrent.futures.process', 'multiprocessing')\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == ""


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_commands():
    """Every ``nlspectra <sub> ...`` line in the README's code blocks, as argv."""
    with open(README) as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("nlspectra "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    # parsed only, never run
    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: nlspectra {shlex.join(argv)}")


def test_readme_documents_every_subcommand():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in _readme_commands()} == set(sub.choices)
