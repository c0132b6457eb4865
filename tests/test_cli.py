import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest

from nlspectra import NonConvergenceError, _purepy, cli
from nlspectra.cli import _build_parser, _write_rows, main
from nlspectra.oracle import oracle_closed_form_d1_a0, oracle_drummond_bigfloat
from nlspectra.spectra import (
    ASYMPTOTIC_KDELTA_MIN,
    DEFAULT_TOL,
    HYBRID_SWITCH,
    MACLAURIN_KDELTA_MAX,
    KernelParams,
    achievable_squared_norms,
    lambda_asymptotic,
    lambda_hybrid,
    lambda_maclaurin,
    lattice_spectrum,
)
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
        # one k*delta on each side of the route switch at 40
        for k, method in (("10", "maclaurin"), ("40", "asymptotic")):
            assert run("eval", "--d", "1", "--alpha", "0", "--delta", "1", "--k", k) == 0
            fields = capsys.readouterr().out.strip().split(",")
            assert fields[6] == method
            ref = float(oracle_closed_form_d1_a0(1.0, float(k)))
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
        # k^2 = 1e400 overflows the doubles; m is its exact square as text
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[3] == "9.9999999999999994e+399"
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

    def test_tiny_k_exits_0(self, capsys):
        # lambda = -1e-400 underflows to -0: the row says so with an
        # infinite estimate rather than a non-convergence
        assert run("eval", "--d", "3", "--alpha", "2", "--delta", "1", "--k", "1e-200") == 0
        fields = capsys.readouterr().out.strip().split(",")
        assert fields[5] == "-0" and fields[6] == "maclaurin"
        assert fields[7] == "1" and fields[8] == "inf"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tiny_k_prints_a_nonzero_m(self, capsys, fmt):
        # k*k underflows: m is the exact square at 17 digits, not the
        # constant mode's 0; an integral k^2 stays an int
        for k, m in (("1e-200", "9.9999999999999996e-401"),
                     ("1e-160", "9.9999999999999998e-321"), ("3", 9)):
            argv = ["eval", "--d", "3", "--alpha", "2", "--delta", "1", "--k", k]
            assert run(*argv, "--format", fmt) == 0
            out = capsys.readouterr().out
            got = json.loads(out)["m"] if fmt == "json" else out.split(",")[3]
            assert got == (m if fmt == "json" else str(m))
            assert Decimal(got) > 0

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

    @pytest.mark.parametrize("method", ["both", "hybrid"])
    @pytest.mark.parametrize("tol", ["1e-08", repr(DEFAULT_TOL)])
    def test_cells_are_the_public_wrappers(self, tmp_path, method, tol):
        # kdelta from below the asymptotic route's reach to beyond the series'
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "0", "--alpha-max", "3.9",
                "--alpha-steps", "3", "--kdelta-min", "1", "--kdelta-max", "2501",
                "--kdelta-steps", "4", "--method", method, "--tol", tol,
                "--out", str(out)) == 0
        )
        kds = cli._grid(1.0, 2501.0, 4)
        assert kds[0] < ASYMPTOTIC_KDELTA_MIN and kds[-1] > MACLAURIN_KDELTA_MAX
        fns = [lambda_hybrid] if method == "hybrid" else [lambda_maclaurin, lambda_asymptotic]
        lines = out.read_text().splitlines()[1:]
        cells = [(alpha, kd) for alpha in cli._grid(0.0, 3.9, 3) for kd in kds]
        assert len(lines) == len(cells)
        for line, (alpha, kd) in zip(lines, cells):
            params = KernelParams(2, alpha, 1.0)
            row = (2, alpha, kd)
            for fn in fns:
                res = cli._best_effort(lambda k: fn(params, k, float(tol)), kd)
                if method == "hybrid":
                    row += (res.lam, res.method, res.terms, res.est_rel_err, "")
                else:
                    row += (res.lam, res.terms, res.est_rel_err, "")
            assert line + "\n" == cli._line_format(row) % row

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
        good = {"--alpha-min": "0", "--alpha-max": "3", "--alpha-steps": "2",
                "--kdelta-min": "1", "--kdelta-max": "2", "--kdelta-steps": "2"}
        for bad in (
            {"--alpha-max": "4"},  # alpha-max = d + 2
            {"--alpha-steps": "0"},
            {"--alpha-min": "2", "--alpha-max": "1"},
            {"--alpha-steps": str(cli.TABLE_CELL_LIMIT // 1000 + 1), "--kdelta-steps": "1000"},
        ):
            grid = [a for kv in {**good, **bad}.items() for a in kv]
            assert run("table", "--d", "2", *grid, "--out", str(out)) == 2, bad
            assert not out.exists(), bad

    def test_last_grid_point_is_the_maximum(self, tmp_path):
        # lo + (hi - lo) rounds to 4.0 = d + 2 here, and 0.3 + 6 * 0.6 / 6 to
        # 0.9000000000000001; the points between keep their arithmetic
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "0.7", "--alpha-max", "3.9999999999999996",
                "--alpha-steps", "2", "--kdelta-min", "0.3", "--kdelta-max", "0.9",
                "--kdelta-steps", "7", "--method", "mac", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert [float(r["alpha"]) for r in rows[::7]] == [0.7, 3.9999999999999996]
        kds = [0.3 + i * (0.9 - 0.3) / 6 for i in range(6)] + [0.9]
        assert [float(r["kdelta"]) for r in rows[:7]] == kds

    def test_grid_beyond_double_range_exits_2_before_any_cell(
        self, tmp_path, capsys, monkeypatch
    ):
        def evaluated(*_args):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr(cli, "_Evaluator", evaluated)
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "0", "--alpha-max", "1",
                "--alpha-steps", "2", "--kdelta-min", "1", "--kdelta-max", "1.7e308",
                "--kdelta-steps", "3", "--out", str(out)) == 2
        )
        assert "leaves the double range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method,columns", [
        ("mac", ["lambda_mac", "terms_mac", "est_mac", "err_mac"]),
        ("asy", ["lambda_asy", "terms_asy", "est_asy", "err_asy"]),
        ("both", ["lambda_mac", "terms_mac", "est_mac", "err_mac",
                  "lambda_asy", "terms_asy", "est_asy", "err_asy"]),
        ("hybrid", ["lambda", "method", "terms", "est_rel_err", "err"]),
    ])
    def test_columns_per_method(self, tmp_path, method, columns):
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "1", "--alpha-max", "1",
                "--alpha-steps", "1", "--kdelta-min", "3", "--kdelta-max", "40",
                "--kdelta-steps", "2", "--method", method, "--out", str(out)) == 0
        )
        header, rows = read_csv(out)
        assert header == ["d", "alpha", "kdelta"] + columns
        assert all(len(row) == len(header) for row in rows)
        if method == "hybrid":
            assert [row["method"] for row in rows] == ["maclaurin", "asymptotic"]

    @pytest.mark.parametrize("method", ["both", "hybrid"])
    def test_estimate_columns_are_the_routes_estimates(self, tmp_path, method):
        # below the asymptotic floor (k*delta = 2) its estimate is inf
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "3", "--alpha-min", "0.5", "--alpha-max", "2",
                "--alpha-steps", "2", "--kdelta-min", "2", "--kdelta-max", "40",
                "--kdelta-steps", "3", "--method", method, "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert len(rows) == 6
        for row in rows:
            params = KernelParams(3, float(row["alpha"]), 1.0)
            kd = float(row["kdelta"])
            if method == "hybrid":
                assert float(row["est_rel_err"]) == lambda_hybrid(params, kd).est_rel_err
                continue
            assert float(row["est_mac"]) == lambda_maclaurin(params, kd).est_rel_err
            assert float(row["est_asy"]) == lambda_asymptotic(params, kd).est_rel_err
            assert (row["est_asy"] == "inf") == (kd < ASYMPTOTIC_KDELTA_MIN)

    def test_maclaurin_overflow_cell(self, tmp_path):
        # (k*delta)^2 overflows: a best-effort NaN cell, not a traceback
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "3", "--alpha-min", "2", "--alpha-max", "2",
                "--alpha-steps", "1", "--kdelta-min", "1e200", "--kdelta-max", "1e200",
                "--kdelta-steps", "1", "--method", "mac", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert rows[0]["lambda_mac"] == "nan" and rows[0]["est_mac"] == "inf"

    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_tiny_kdelta_asymptotic_cell_is_nan(self, tmp_path, with_oracle):
        # x^(mu-1) of a Lommel factor overflows at k*delta = 1e-150: that cell
        # is NaN and the sweep goes on
        out = tmp_path / "t.csv"
        argv = ["table", "--d", "1", "--alpha-min", "1", "--alpha-max", "1",
                "--alpha-steps", "1", "--kdelta-min", "1e-150", "--kdelta-max", "10",
                "--kdelta-steps", "3", "--method", "both", "--out", str(out)]
        assert run(*argv, *["--with-oracle"] * with_oracle) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert all(math.isfinite(float(row["lambda_mac"])) for row in rows)
        assert rows[0]["lambda_asy"] == "nan" and rows[0]["terms_asy"] == "0"
        assert rows[0]["est_asy"] == "inf"
        assert all(math.isfinite(float(row["lambda_asy"])) for row in rows[1:])
        assert rows[0]["err_asy"] == ("nan" if with_oracle else "")

    @pytest.mark.parametrize("lo, hi", [("1", "inf"), ("inf", "inf"), ("1", "nan")])
    def test_nonfinite_kdelta_exits_2(self, tmp_path, capsys, lo, hi):
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "0", "--alpha-max", "1",
                "--alpha-steps", "2", "--kdelta-min", lo, "--kdelta-max", hi,
                "--kdelta-steps", "2", "--out", str(out)) == 2
        )
        err = capsys.readouterr().err
        assert "--kdelta-min" in err and "--kdelta-max" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_bad_tol_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch, tol):
        def evaluated(*_args):
            raise AssertionError("a cell was evaluated")

        # every cell of every method is evaluated through it
        monkeypatch.setattr(cli, "_Evaluator", evaluated)
        out = tmp_path / "t.csv"
        assert (
            run("table", "--d", "2", "--alpha-min", "0", "--alpha-max", "1",
                "--alpha-steps", "2", "--kdelta-min", "1", "--kdelta-max", "8",
                "--kdelta-steps", "2", "--tol", tol, "--out", str(out)) == 2
        )
        assert "tol must be" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("d,alpha,delta,kmax", [(3, 2.0137, 0.1, 8), (2, 3.9123, 0.25, 40)])
    def test_rows_are_the_nine_fields_of_the_table(self, tmp_path, fmt, d, alpha, delta, kmax):
        # d, alpha and delta are formatted once per file; every line still
        # reads as the nine fields of its entry at 17 significant digits
        out = tmp_path / "s.out"
        argv = ["spectrum", "--d", str(d), "--alpha", repr(alpha), "--delta", repr(delta),
                "--kmax", str(kmax), "--out", str(out), "--format", fmt]
        assert run(*argv) == 0
        params = KernelParams(d, alpha, delta)
        rows = [
            (d, alpha, delta, m, math.sqrt(m), r.lam, r.method, r.terms, r.est_rel_err)
            for m, r in lattice_spectrum(params, kmax).entries.items()
        ]
        assert {r[6] for r in rows} >= {"zero", "maclaurin"}
        if fmt == "json":
            records = [dict(zip(cli.EIGENROW_FIELDS, row)) for row in rows]
            assert out.read_text() == json.dumps(records, indent=1) + "\n"
            return
        lines = [",".join(cli.EIGENROW_FIELDS)]
        for row in rows:
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
        assert out.read_text() == "\n".join(lines) + "\n"

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_midway_leaves_no_file(self, tmp_path, monkeypatch, capsys, fmt):
        # rows before the failing m are already written to the temporary file
        # when the series kernel stops converging at a later series m
        delta = 0.8
        series = [
            m for m in achievable_squared_norms(2, 40)
            if m and math.sqrt(m) * delta < HYBRID_SWITCH
        ]
        bad = series[2 * len(series) // 3]
        kernel = _purepy.maclaurin_lambda

        def failing_at_bad(constants, k, m=None):
            lam, terms, converged, est = kernel(constants, k, m)
            return lam, terms, converged and m != bad, est

        monkeypatch.setattr(_purepy, "maclaurin_lambda", failing_at_bad)
        out = tmp_path / "s.out"
        argv = ["spectrum", "--d", "2", "--alpha", "3.9", "--delta", repr(delta),
                "--kmax", "40", "--out", str(out), "--format", fmt]
        assert run(*argv) == 3
        assert f"m={bad}:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        out.write_bytes(b"old bytes\n")
        assert run(*argv) == 3
        assert f"m={bad}:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["s.out"]
        assert out.read_bytes() == b"old bytes\n"


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

    def test_underflowing_parameters_give_nan_rows(self, tmp_path):
        # a_1 = alpha beta / (-z) underflows to 0: a ValueError, so NaN rows
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "1e-200", "--beta", "1e-200", "--order", "5",
                "--re-min", "1", "--re-max", "2", "--im-min", "0", "--im-max", "1",
                "--nx", "2", "--ny", "1", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert all(math.isnan(float(r["re_T"])) and math.isnan(float(r["im_T"])) for r in rows)

    def test_last_grid_point_is_the_maximum(self, tmp_path):
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "1", "--beta", "1", "--order", "5",
                "--re-min", "0.3", "--re-max", "0.9", "--im-min", "0.3", "--im-max", "0.9",
                "--nx", "7", "--ny", "7", "--out", str(out)) == 0
        )
        _, rows = read_csv(out)
        assert float(rows[6]["re_z"]) == 0.9 and float(rows[-1]["im_z"]) == 0.9

    def test_grid_beyond_double_range_exits_2(self, tmp_path):
        out = tmp_path / "p.csv"
        assert (
            run("phase", "--alpha", "1", "--beta", "1", "--order", "5",
                "--re-min=-1e308", "--re-max", "1e308", "--im-min", "0", "--im-max", "1",
                "--nx", "2", "--ny", "2", "--out", str(out)) == 2
        )
        assert not out.exists()

    def test_order_guard_exits_2(self, tmp_path):
        out = tmp_path / "p.csv"
        for order, nx in (("100000", "2"), ("5001", "2"), ("10", "0")):
            assert (
                run("phase", "--alpha", "1", "--beta", "1", "--order", order,
                    "--re-min", "0", "--re-max", "1", "--im-min", "0", "--im-max", "1",
                    "--nx", nx, "--ny", "2", "--out", str(out)) == 2
            ), (order, nx)
            assert not out.exists()


class TestWriteRows:
    HEADER = ("i", "flag", "name", "blank", "x", "y")
    # every row has the column types of the first, as the subcommands build them
    ROWS = [
        (3, True, "asymptotic", "", math.inf, -0.0),
        (-7, False, "zero", "", -math.inf, 5e-324),
        (2**60, True, "maclaurin", "", math.nan, 2.0**53 + 2),
        (0, False, "", "", 0.1, -1.5e300),
    ]

    def test_csv_matches_per_value_formatting(self, tmp_path):
        out = tmp_path / "rows.csv"
        _write_rows(str(out), self.HEADER, self.ROWS, "csv")
        lines = [",".join(self.HEADER)]
        for row in self.ROWS:
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_json_unchanged(self, tmp_path):
        out = tmp_path / "rows.json"
        _write_rows(str(out), self.HEADER, self.ROWS, "json")
        records = [dict(zip(self.HEADER, row)) for row in self.ROWS]
        assert out.read_text() == json.dumps(records, indent=1) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_lead_columns_read_as_part_of_every_row(self, tmp_path, fmt):
        out = tmp_path / "rows.out"
        lead = (7, 0.1, "%s%%")
        header = ("a", "b", "c") + self.HEADER
        _write_rows(str(out), header, self.ROWS, fmt, lead=lead)
        plain = tmp_path / "plain.out"
        _write_rows(str(plain), header, [lead + row for row in self.ROWS], fmt)
        assert out.read_text() == plain.read_text()

    def test_no_rows_gives_the_header_alone(self, tmp_path):
        out = tmp_path / "rows.csv"
        _write_rows(str(out), self.HEADER, [], "csv")
        assert out.read_text() == ",".join(self.HEADER) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_from_an_iterator(self, tmp_path, fmt):
        out = tmp_path / "iter.out"
        _write_rows(str(out), self.HEADER, iter(self.ROWS), fmt)
        plain = tmp_path / "list.out"
        _write_rows(str(plain), self.HEADER, self.ROWS, fmt)
        assert out.read_bytes() == plain.read_bytes()
        empty = tmp_path / "empty.out"
        _write_rows(str(empty), self.HEADER, iter(()), fmt)
        _write_rows(str(plain), self.HEADER, [], fmt)
        assert empty.read_bytes() == plain.read_bytes()

    def test_files_named_like_the_temporary_are_kept(self, tmp_path):
        # the temporary file is created exclusively, under a name of its own
        out = tmp_path / "rows.csv"
        mine = {out.name + ".tmp": b"mine\n", f"{out.name}.{os.getpid()}.0.tmp": b"also mine\n"}
        for name, data in mine.items():
            (tmp_path / name).write_bytes(data)
        _write_rows(str(out), self.HEADER, self.ROWS, "csv")
        written = out.read_bytes()
        # a row short of columns fails to format after the rows before it
        with pytest.raises(TypeError):
            _write_rows(str(out), self.HEADER, self.ROWS + [(1,)], "csv")
        assert out.read_bytes() == written
        assert sorted(os.listdir(tmp_path)) == sorted([out.name, *mine])
        for name, data in mine.items():
            assert (tmp_path / name).read_bytes() == data


def test_memory_does_not_grow_with_the_rows(tmp_path):
    # every CSV row is written as it is computed: the traced peak of a
    # 5,924-row lattice or a 50,000-point phase grid holds no list of rows
    # (about 2 and 6 MiB when each command built its whole list first)
    out = str(tmp_path / "o.csv")
    for argv in (
        ["spectrum", "--d", "2", "--alpha", "1", "--delta", "0.01", "--kmax", "128"],
        ["phase", "--alpha", "1", "--beta", "1", "--order", "0", "--re-min", "-2",
         "--re-max", "2", "--im-min", "-2", "--im-max", "2", "--nx", "250", "--ny", "200"],
    ):
        tracemalloc.start()
        try:
            assert main(argv + ["--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, (argv[0], peak)


def test_cli_import_loads_no_oracle_or_pool():
    # mpmath (the oracles) and the process pool load only when a command needs
    # them, json only for --format json; the records are named tuples, which
    # need neither dataclasses nor the inspect module it loads
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for module in ("nlspectra.cli", "nlspectra"):
        code = (
            "import sys\n"
            f"import {module}\n"
            "heavy = ('mpmath', 'concurrent.futures.process', 'multiprocessing',\n"
            "         'dataclasses', 'inspect', 'json')\n"
            "print(','.join(m for m in heavy if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "", module


def test_spectrum_without_jobs_starts_no_pool(tmp_path):
    # the default is one process: no worker pool is imported or started
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "from nlspectra.cli import main\n"
        "argv = ['spectrum', '--d', '2', '--alpha', '1', '--delta', '1', '--kmax', '2',\n"
        "        '--out', sys.argv[1]]\n"
        "assert main(argv) == 0\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "s.csv")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def _cli_process(argv, block_mpmath=False):
    """``nlspectra *argv`` in a fresh interpreter on this checkout's source.
    With ``block_mpmath`` an import of mpmath fails there, as it does where
    the package is installed without its ``oracle`` extra."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys\n"
        + ("sys.modules['mpmath'] = None\n" if block_mpmath else "")
        + "from nlspectra.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )


_TABLE_ARGV = ["table", "--d", "3", "--alpha-min", "0.5", "--alpha-max", "4.5",
               "--alpha-steps", "3", "--kdelta-min", "1", "--kdelta-max", "60",
               "--kdelta-steps", "4"]
_PHASE_ARGV = ["phase", "--alpha", "0.5", "--beta", "1.5", "--order", "12", "--re-min", "-3",
               "--re-max", "2", "--im-min", "-2", "--im-max", "2", "--nx", "4", "--ny", "3"]


def test_commands_run_without_mpmath(tmp_path, capsys):
    # mpmath is the oracle extra: without it every command but
    # table --with-oracle gives the output it gives with it
    argv = ["eval", "--d", "3", "--alpha", "2", "--delta", "1", "--k", "45"]
    assert main(argv) == 0
    proc = _cli_process(argv, block_mpmath=True)
    assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out)
    for name, argv in [
        ("s.csv", ["spectrum", "--d", "2", "--alpha", "3.9", "--delta", "0.25", "--kmax", "24"]),
        ("t.csv", _TABLE_ARGV),
        ("p.csv", _PHASE_ARGV),
    ]:
        here, there = tmp_path / f"here_{name}", tmp_path / f"there_{name}"
        assert main(argv + ["--out", str(here)]) == 0
        proc = _cli_process(argv + ["--out", str(there)], block_mpmath=True)
        assert proc.returncode == 0, proc.stderr
        assert there.read_bytes() == here.read_bytes(), argv[0]
    out = tmp_path / "oracle.csv"
    proc = _cli_process(_TABLE_ARGV + ["--with-oracle", "--out", str(out)], block_mpmath=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "nlspectra[oracle]" in proc.stderr
    assert not list(tmp_path.glob("oracle.csv*"))


def test_one_process_runs_each_command_as_a_fresh_one(tmp_path):
    # the parser is built once per process: each call parses its own argv,
    # after any earlier command, failed or not
    commands = [
        (0, "a.csv", ["spectrum", "--d", "2", "--alpha", "1.5", "--delta", "0.5", "--kmax", "12"]),
        (0, "b.csv", _PHASE_ARGV),
        (2, None, ["eval", "--d", "11", "--alpha", "1", "--delta", "1", "--k", "1"]),
        (0, "c.json", ["spectrum", "--d", "3", "--alpha", "4.9", "--delta", "2",
                       "--kmax", "5", "--tol", "1e-8", "--format", "json"]),
        (0, "d.csv", _TABLE_ARGV + ["--method", "hybrid"]),
    ]
    for rc, name, argv in commands:
        if name is not None:
            argv = argv + ["--out", str(tmp_path / f"one_{name}")]
        assert main(argv) == rc, argv
    for rc, name, argv in commands:
        if name is not None:
            argv = argv + ["--out", str(tmp_path / f"own_{name}")]
        proc = _cli_process(argv)
        assert proc.returncode == rc, proc.stderr
        if name is not None:
            one = (tmp_path / f"one_{name}").read_bytes()
            assert one and one == (tmp_path / f"own_{name}").read_bytes(), name


README =os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


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
