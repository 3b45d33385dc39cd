"""Correctness checks on each workload's outputs.

Each check returns a list of problems; an empty list means the output
passed. A failed check marks its operation as failed, which counts in
the run's ``failed``. The checks recompute from the written files: the
optimize check recounts intersections with the package's reference
counter, and the sweep check solves the ladder with this module's own
chain formula, so a new solver path in the package is never compared
with itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from trajdiag.trajectory import count_intersections, read_trajectories_csv

OPTIMIZE_FILES = ("ga_log.csv", "best_vector.json", "trajectories.csv")
SWEEP_FILES = ("dictionary.csv",)
GOLDEN_LABEL = "__golden__"  # dictionary.csv's component label for golden rows


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_optimize(outdir: Path, tol: float = 1e-6, origin_tol: float = 1e-6) -> list[str]:
    """Recount I from trajectories.csv; best fitness must never decrease."""
    outdir = Path(outdir)
    problems = []
    best = json.loads((outdir / "best_vector.json").read_text())
    recount, _ = count_intersections(
        read_trajectories_csv(outdir / "trajectories.csv"), tol, origin_tol
    )
    if recount != best["intersections"]:
        problems.append(
            f"best_vector.json says {best['intersections']} intersections, "
            f"trajectories.csv has {recount}"
        )
    if best["fitness"] != 1.0 / (recount + 1):
        problems.append(f"best fitness {best['fitness']} is not 1/(I+1) for I={recount}")
    lines = (outdir / "ga_log.csv").read_text().splitlines()
    column = lines[0].split(",").index("best_fitness")
    history = [float(line.split(",")[column]) for line in lines[1:]]
    if not history or not all(math.isfinite(f) for f in history):
        problems.append("ga_log.csv best fitness missing or not finite")
    elif any(b < a for a, b in zip(history, history[1:])):
        problems.append("ga_log.csv best fitness decreases")
    elif history[-1] != best["fitness"]:
        problems.append("ga_log.csv final best fitness differs from best_vector.json")
    return problems


def ladder_values(text: str) -> dict[str, float]:
    """Element values of a netlist from ``workloads.ladder_netlist``, in netlist order."""
    values = {}
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0][0] in "RLC":
            values[fields[0]] = float(fields[3])
    return values


def ladder_gain(values: dict[str, float], omega: float) -> complex:
    """V(out)/V(in) of the doubly terminated ladder, by its chain formula.

    ``RS`` feeds node 1; section k is a series ``Lk`` from node k to k+1
    and a shunt ``Ck`` at node k+1; ``RL`` loads the last node. The load
    admittance is folded back to the source, then the voltage divides
    forward section by section. Independent of the package's MNA solver.
    """
    sections = sum(name.startswith("L") for name in values)
    jw = 1j * omega
    # shunt[k]: impedance from node k+1 to ground (Ck parallel to everything after it)
    shunt = [0j] * (sections + 1)
    admittance = 1.0 / values["RL"]
    for k in range(sections, 0, -1):
        shunt[k] = 1.0 / (admittance + jw * values[f"C{k}"])
        admittance = 1.0 / (jw * values[f"L{k}"] + shunt[k])
    gain = (1.0 / admittance) / (values["RS"] + 1.0 / admittance)
    for k in range(1, sections + 1):
        gain *= shunt[k] / (jw * values[f"L{k}"] + shunt[k])
    return gain


def check_sweep(
    csv_path: Path, values: dict[str, float], faults, grid: int, sample_rows,
    tol_db: float = 1e-9,
) -> list[str]:
    """Row count (1 + faults) x grid; sampled rows against the ladder's chain formula.

    ``values`` are the ladder's nominal element values (``ladder_values``),
    ``faults`` the enumerated fault list, and ``sample_rows`` the 0-based
    data-row indices to recompute, with the faulted part scaled by
    (1 + deviation). Frequencies in the file are rad/s (the CLI default unit).
    """
    problems = []
    lines = Path(csv_path).read_text().splitlines()
    if not lines or lines[0] != "component,deviation,freq,mag_db":
        return ["dictionary.csv header is wrong"]
    rows = lines[1:]
    expected = (1 + len(faults)) * grid
    if len(rows) != expected:
        return [f"dictionary.csv has {len(rows)} rows, expected (1 + {len(faults)}) x {grid}"]
    non_finite = sum(not math.isfinite(float(row.rsplit(",", 1)[1])) for row in rows)
    if non_finite:
        problems.append(f"{non_finite} non-finite magnitudes")
    for index in sample_rows:
        component, deviation, freq, mag = rows[index].split(",")
        block = index // grid
        want = (GOLDEN_LABEL, 0.0) if block == 0 else (
            faults[block - 1].component, faults[block - 1].deviation
        )
        if (component, float(deviation)) != want:
            problems.append(f"row {index}: labelled {component},{deviation}, expected {want}")
            continue
        target = dict(values)
        if block:
            target[want[0]] *= 1.0 + want[1]
        reference = 20.0 * math.log10(abs(ladder_gain(target, float(freq))))
        if not abs(float(mag) - reference) <= tol_db:
            problems.append(f"row {index}: {mag} dB, chain formula gives {reference!r} dB")
    return problems


def check_diagnose(query: dict, answer) -> list[str]:
    """A finite top hypothesis; on-grid faults rank their own component first at ~0."""
    if answer is None:
        return ["no hypothesis"]
    component, distance = answer
    if not math.isfinite(distance):
        return [f"non-finite distance {distance}"]
    if query["on_grid"] and (component != query["component"] or distance > 1e-9):
        return [
            f"on-grid {query['component']}:{query['deviation']:+g} ranked "
            f"{component} first at {distance:.3g}"
        ]
    return []
