"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

Runs every workload at its tiny size, traced and untraced, and checks the
result line against BENCHMARK.json; then feeds deliberately wrong outputs
through each correctness check and requires it to fire.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from trajdiag.cli import main  # noqa: E402
from trajdiag.faultlib import FaultConfig, enumerate_faults  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = BENCH / "_work" / "smoke"


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def scratch(request):
    path = SCRATCH / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_normalization_removes_a_host_slowdown():
    op_s = [0.2, 0.2, 0.2, 0.2]
    probe_s = [0.003, 0.003, 0.003]
    probe_after = [-1, 1, 3]
    normalized = probe.normalize_ops(op_s, probe_s, probe_after)
    assert normalized == pytest.approx([0.2 * probe.REFERENCE_S / 0.003] * 4)
    # the same run in a phase twice as slow
    slow = probe.normalize_ops([0.4] * 4, [0.006] * 3, probe_after)
    assert slow == pytest.approx(normalized)
    # a slower program, probes unchanged: the slowdown shows in full
    assert probe.normalize_ops([0.3] * 4, probe_s, probe_after) == pytest.approx(
        [1.5 * n for n in normalized])
    assert probe.probe() > 0.0


def test_fails_without_program_sources(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench(["--workload", "sweep-ladder", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_optimize_check_fires(scratch):
    _cli("optimize", "--outdir", str(scratch), "--population-size", "8",
         "--generations", "2", "--seed", "5")
    assert checks.check_optimize(scratch) == []

    best_path = scratch / "best_vector.json"
    best = json.loads(best_path.read_text())
    best_path.write_text(json.dumps(dict(best, intersections=best["intersections"] + 1)))
    assert checks.check_optimize(scratch)
    best_path.write_text(json.dumps(best))

    log_path = scratch / "ga_log.csv"
    lines = log_path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(lines[-2].split(",")[1]) - 0.01)
    log_path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert any("decreases" in p for p in checks.check_optimize(scratch))


def test_sweep_check_fires(scratch):
    netlist = scratch / "ladder.cir"
    netlist.write_text(workloads.ladder_netlist(2, 7))
    _cli("simulate", "--netlist", str(netlist), "--outdir", str(scratch), "--grid", "5",
         "--f-max", "2")
    values = checks.ladder_values(netlist.read_text())
    faults = enumerate_faults(FaultConfig(tuple(values)))
    csv_path = scratch / "dictionary.csv"
    sample = [0, 7, 23]
    assert checks.check_sweep(csv_path, values, faults, 5, sample) == []

    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_sweep(csv_path, values, faults, 5, sample)

    fields = lines[1 + 7].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    lines[1 + 7] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    assert any("row 7" in p for p in checks.check_sweep(csv_path, values, faults, 5, sample))


def test_diagnose_check_fires():
    on_grid = {"component": "R2", "deviation": -0.2, "on_grid": True}
    off_grid = {"component": "R2", "deviation": -0.25, "on_grid": False}
    assert checks.check_diagnose(on_grid, ["R2", 0.0]) == []
    assert checks.check_diagnose(off_grid, ["C2", 0.01]) == []  # a miss, not an error
    assert checks.check_diagnose(on_grid, ["C2", 0.0])
    assert checks.check_diagnose(on_grid, ["R2", 1e-6])
    assert checks.check_diagnose(off_grid, ["R2", float("nan")])
    assert checks.check_diagnose(off_grid, None)
