"""Tests for the CLI: sweeps, comparison, selfcheck, exit codes."""

import io
import math

import pytest

from coulwkb import airy
from coulwkb.cli import (
    CSV_HEADER,
    EvaluationRecord,
    SweepSpec,
    cmd_compare,
    cmd_selfcheck,
    cmd_sweep,
    compare_quads,
    main,
)
from coulwkb.wkbcore import ComplexParams, wkb_quad


def _read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_HEADER
    return lines[1:]


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(ell=0, eta=0, rho_min=0.0, rho_max=1, rho_points=5)
        with pytest.raises(ValueError):
            SweepSpec(ell=0, eta=0, rho_min=1, rho_max=2, rho_points=1)
        with pytest.raises(ValueError):
            SweepSpec(ell=0, eta=0, rho_min=1, rho_max=2, rho_points=5,
                      rho_arg=math.pi)
        with pytest.raises(ValueError):
            SweepSpec(ell=0, eta=0, rho_min=1, rho_max=2, rho_points=5,
                      backend="magic")
        for bad in ({"eta": complex(math.nan, 0.0)}, {"ell": math.inf},
                    {"rho_min": math.nan}, {"rho_max": math.inf}):
            kwargs = {"ell": 0, "eta": 0, "rho_min": 1, "rho_max": 2,
                      "rho_points": 5, **bad}
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(**kwargs)

    def test_grid(self):
        spec = SweepSpec(ell=0, eta=0, rho_min=1, rho_max=3, rho_points=3)
        assert spec.grid() == [1.0, 2.0, 3.0]


class TestSweep:
    def test_row_count_contract(self, tmp_path):
        out = tmp_path / "two.csv"
        spec = SweepSpec(ell=2, eta=10, rho_min=5, rho_max=6, rho_points=2,
                         backend="wkb", out=str(out))
        cmd_sweep(spec)
        assert len(_read_rows(out)) == 2

    def test_both_backends_row_count(self, tmp_path):
        out = tmp_path / "both.csv"
        spec = SweepSpec(ell=2, eta=10, rho_min=1, rho_max=60, rho_points=10,
                         backend="both", out=str(out))
        cmd_sweep(spec)
        rows = _read_rows(out)
        assert len(rows) == 20
        assert sum(r.split(",")[10] == "wkb" for r in rows) == 10
        assert sum(r.split(",")[10] == "exact" for r in rows) == 10

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cmd_sweep(SweepSpec(ell=2 + 1j, eta=10 + 1j, rho_min=2,
                                rho_max=40, rho_points=17,
                                rho_arg=math.pi / 4, backend="both",
                                out=str(out)))
        assert a.read_bytes() == b.read_bytes()

    def test_wronskian_column_recomputable(self, tmp_path):
        out = tmp_path / "w.csv"
        cmd_sweep(SweepSpec(ell=2, eta=10, rho_min=3, rho_max=55,
                            rho_points=12, backend="both", out=str(out)))
        for row in _read_rows(out):
            c = row.split(",")
            f = complex(float(c[2]), float(c[3]))
            fp = complex(float(c[4]), float(c[5]))
            g = complex(float(c[6]), float(c[7]))
            gp = complex(float(c[8]), float(c[9]))
            recomputed = abs(fp * g - f * gp - 1.0)
            assert recomputed == pytest.approx(float(c[11]), rel=1e-9, abs=1e-18)

    def test_partial_failure_marks_rows(self, tmp_path):
        # deep inside a huge barrier Bi exceeds the double range: those
        # points become nan rows, the file is not aborted
        out = tmp_path / "p.csv"
        failures = cmd_sweep(SweepSpec(ell=0, eta=600, rho_min=60,
                                       rho_max=2400, rho_points=6,
                                       backend="wkb", out=str(out)))
        rows = _read_rows(out)
        assert len(rows) == 6
        assert failures >= 1
        assert any("nan" in r for r in rows)
        assert any("nan" not in r for r in rows)

    def test_float_formatting_17_digits(self):
        rec = EvaluationRecord(1 / 3, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                               0.7, 0.8, "wkb", 1e-12)
        row = rec.csv_row()
        assert row.startswith("0.33333333333333331,")

    def test_stdout_output(self, capsys):
        cmd_sweep(SweepSpec(ell=2, eta=10, rho_min=1, rho_max=2,
                            rho_points=2, backend="wkb", out="-"))
        out = capsys.readouterr().out
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.splitlines()) == 3


class TestCompare:
    def test_identical_backends_zero_errors(self):
        grid = [5.0, 10.0, 20.0]
        quads = [wkb_quad(ComplexParams(2, 10, r)) for r in grid]
        rows, summary = compare_quads(grid, quads, quads)
        for name in ("f", "g", "fp", "gp"):
            assert summary[name]["median"] == 0.0
            assert summary[name]["p90"] == 0.0
            assert summary[name]["within_1pct"] == 1.0

    def test_fig1_style_medians(self, tmp_path, capsys):
        spec = SweepSpec(ell=2, eta=10, rho_min=1, rho_max=60,
                         rho_points=40, out=str(tmp_path / "c.csv"))
        summary = cmd_compare(spec)
        text = capsys.readouterr().out
        assert "median" in text
        for name in ("f", "g", "fp", "gp"):
            assert summary[name]["median"] <= 0.03

    def test_failed_points_skipped(self):
        grid = [1.0, 2.0]
        q = wkb_quad(ComplexParams(2, 10, 5))
        rows, summary = compare_quads(grid, [q, ValueError("x")], [q, q])
        assert summary["points"] == 1
        assert summary["skipped"] == 1

    def test_compare_csv_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cmd_compare(SweepSpec(ell=2, eta=10, rho_min=5, rho_max=40,
                                  rho_points=12, out=str(out)))
        assert a.read_bytes() == b.read_bytes()


class TestSelfcheck:
    def test_fresh_build_passes_within_budget(self):
        import time
        buf = io.StringIO()
        t0 = time.perf_counter()
        assert cmd_selfcheck(buf) is True
        assert time.perf_counter() - t0 < 60.0
        out = buf.getvalue()
        assert "FAIL" not in out
        assert out.count("PASS") >= 8

    def test_injected_bi_sign_error_is_caught(self, monkeypatch):
        real = airy.airy_quad

        def broken(z):
            q = real(z)
            return airy.AiryQuad(ai=q.ai, aip=q.aip, bi=-q.bi, bip=-q.bip)

        monkeypatch.setattr(airy, "airy_quad", broken)
        buf = io.StringIO()
        assert cmd_selfcheck(buf) is False
        assert "FAIL coulomb_wronskian" in buf.getvalue()


class TestMain:
    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--rho-min", "1", "--rho-max", "2",
                  "--rho-points", "5", "--backend", "magic"])
        assert exc.value.code == 1

    def test_invalid_spec_exit_1(self, capsys):
        code = main(["sweep", "--rho-min", "-1", "--rho-max", "2",
                     "--rho-points", "5"])
        assert code == 1

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("bad", [("--eta-re", "nan"), ("--ell-im", "inf"),
                                     ("--rho-min", "nan"), ("--rho-max", "inf")])
    def test_non_finite_input_exit_1(self, command, bad, tmp_path, capsys):
        out = tmp_path / "n.csv"
        args = {"--ell-re": "2", "--ell-im": "0", "--eta-re": "10",
                "--rho-min": "5", "--rho-max": "25"}
        args[bad[0]] = bad[1]
        argv = [command, "--rho-points", "3", "--out", str(out)]
        for flag, value in args.items():
            argv += [flag, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_sweep_exit_0(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--ell-re", "2", "--eta-re", "10",
                     "--rho-min", "5", "--rho-max", "25",
                     "--rho-points", "3", "--backend", "wkb",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_fully_failed_sweep_exit_2(self, tmp_path):
        code = main(["sweep", "--ell-re", "0", "--eta-re", "600",
                     "--rho-min", "10", "--rho-max", "30",
                     "--rho-points", "2", "--backend", "wkb",
                     "--out", str(tmp_path / "f.csv")])
        assert code == 2

    def test_huge_eta_exact_sweep_no_traceback(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["sweep", "--backend", "exact", "--eta-re", "1000",
                     "--rho-min", "1", "--rho-max", "2", "--rho-points", "2",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 0:
            assert all("nan" in r for r in _read_rows(out))
        else:
            assert code == 2
            assert err.startswith("numerical failure:")

    def test_selfcheck_exit_0(self, capsys):
        assert main(["selfcheck"]) == 0

    def test_selfcheck_failure_exit_3(self, monkeypatch, capsys):
        real = airy.airy_quad

        def broken(z):
            q = real(z)
            return airy.AiryQuad(ai=q.ai, aip=q.aip, bi=-q.bi, bip=-q.bip)

        monkeypatch.setattr(airy, "airy_quad", broken)
        assert main(["selfcheck"]) == 3
