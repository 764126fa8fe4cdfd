"""Smoke test of the benchmark harness at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced with ``--seconds 1``;
each must pass its checks and emit every metric named in
BENCHMARK.json with its unit. Corrupted outputs must trip the checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    library = run.load_library()
    assert library is not None
    return library


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "l63-n50", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_perturbed_update_trips_the_check(lib):
    work = run.Conditioning(400, rounds_per_s=1.0)
    inputs = work.build(lib, seed=0, seconds=2)
    good = work.run(lib, inputs)
    work.check(lib, inputs, good)
    assert good.failed == 0 and not good.errors

    bad = work.run(lib, inputs)
    bad.results[0][2][7, 2] += 1e-6          # one updated member, variable x0
    bad.results[1][3][3, 1] = np.nan         # one conditional draw
    work.check(lib, inputs, bad)
    assert bad.failed == 2
    assert any("lost their latents" in e for e in bad.errors)
    assert any("not all finite" in e for e in bad.errors)


def test_diverged_filter_trips_the_check(lib):
    work = run.LorenzCycle(50, cycles_per_s=1.0, segments=2)
    inputs = work.build(lib, seed=0, seconds=8)
    out = work.run(lib, inputs)
    res = out.results[0]
    res.rmse_series[-1] = np.nan
    res.mean_rmse = np.inf
    work.check(lib, inputs, out)
    assert out.failed == 1
    assert any("diverged" in e for e in out.errors)


def test_perturbed_pullback_trips_the_check(lib):
    config = lib.WavyConfig(num_pullback=40)
    res = lib.wavy.profile_lambda(config)
    assert run.check_profile(lib, config, res) == []
    cloud = next(iter(res.clouds.values()))
    cloud["pullback"][5, 1] += 1e-6
    assert any("round trip" in e for e in run.check_profile(lib, config, res))
