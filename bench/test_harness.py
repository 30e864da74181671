"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py

Runs every workload on a two-item pool with no time budget, so each test
serves the pool once.  Not part of the tier-1 suite (``testpaths`` is
``tests``): it checks the benchmark, not the library.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

from coulwkb import wkbcore  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted(name, trace):
    _, res = run.run_benchmark(name, 3, 0.0, trace, pool_limit=2, setup_repeats=1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
    for metric in res["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])


def test_corrupted_quad_is_counted(monkeypatch):
    wl = WORKLOADS["wkb_sweep"]
    bad_rho = wl.spec(wl.pool(3)[0]).grid()[4]
    real = wkbcore.wkb_quad

    def corrupted(params):
        q = real(params)
        if params.rho == bad_rho:
            return wkbcore.CoulombQuad(q.f, q.fp, 1.01 * q.g, q.gp)
        return q

    monkeypatch.setattr("coulwkb.cli.wkb_quad", corrupted)
    lines, res = run.run_benchmark("wkb_sweep", 3, 0.0, False, pool_limit=1,
                                   setup_repeats=1)
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["ok_frac"]["value"] < 1.0
    fail_line = next(line for line in lines if line.startswith("fail_frac"))
    assert float(fail_line.split()[1]) == pytest.approx(res["failed"] / res["attempted"], rel=1e-5)


def test_fails_without_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "wkb_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_requests_scaled_by_neighbouring_kernel_times():
    ref = run.REFERENCE_MS * 1e-3
    lat = run.scale_requests([0.1, 0.2], [ref, 2 * ref, 2 * ref])
    assert lat == pytest.approx([0.1 / 1.5, 0.2 / 2])
