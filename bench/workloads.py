"""Seeded input generators and the plan of each benchmark workload.

The plan is everything the workload process needs: the generated netlist
file, the CLI argument lists or the diagnose query list, and the sizes.
The same ``(workload, seed, tiny)`` always gives the same plan. Reasons
for each workload are recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("optimize-biquad", "sweep-ladder", "diagnose-biquad")

# First intersection-free frequency pair of the 100x100 log grid over
# [0.01, 100] rad/s for the bundled biquad (the acceptance suite's oracle
# vector); diagnose queries are classified at this fixed test vector.
DIAGNOSE_VECTOR = (0.01, 0.3125715849688237)

# Deviations of the CLI's default fault grid (0.6..1.4 in 0.1 steps) and the
# bundled biquad's passives, written out so that the inputs do not follow
# changes in the code under test.
GRID_DEVIATIONS = (-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4)
BIQUAD_TARGETS = ("R1", "R2", "R3", "R4", "R5", "C1", "C2")

GA_SEEDS_PER_RUN = 16

# full size / tiny size (the latter only for the benchmark's own smoke test)
SIZES = {
    "optimize-biquad": ({"population": 128, "generations": 1},
                        {"population": 8, "generations": 1}),
    "sweep-ladder": ({"sections": 8, "grid": 201}, {"sections": 2, "grid": 11}),
    "diagnose-biquad": ({"queries": 2000}, {"queries": 80}),
}


def ladder_netlist(sections: int, seed: int) -> str:
    """Doubly terminated RLC lowpass ladder: series L, shunt C per section.

    Passives are the source and load resistors plus 2 per section, so
    ``sections`` = 5 gives 12 and 8 gives 18. Values are drawn around a
    1 rad/s prototype from ``seed``.
    """
    rng = random.Random(f"ladder:{sections}:{seed}")
    last = sections + 1
    lines = [
        f"* {sections}-section RLC ladder, seed {seed}",
        "V1 in 0 1",
        f"RS in n1 {rng.uniform(0.8, 1.25):.6g}",
    ]
    for k in range(1, sections + 1):
        lines.append(f"L{k} n{k} n{k + 1} {rng.uniform(0.5, 2.0):.6g}")
        lines.append(f"C{k} n{k + 1} 0 {rng.uniform(0.5, 2.0):.6g}")
    lines += [f"RL n{last} 0 {rng.uniform(0.8, 1.25):.6g}", ".input V1", f".output n{last}"]
    return "\n".join(lines) + "\n"


def diagnose_queries(count: int, seed: int) -> list[dict]:
    """Every on-grid biquad fault once, then seeded off-grid faults, shuffled.

    Off-grid deviations lie in the fault range, at least 0.02 from nominal
    and 0.005 from every grid deviation.
    """
    rng = random.Random(f"queries:{seed}")
    queries = [
        {"component": c, "deviation": d, "on_grid": True}
        for c in BIQUAD_TARGETS for d in GRID_DEVIATIONS
    ]
    while len(queries) < count:
        deviation = round(rng.uniform(-0.4, 0.4), 6)
        if abs(deviation) < 0.02 or min(abs(deviation - g) for g in GRID_DEVIATIONS) < 0.005:
            continue
        queries.append(
            {"component": rng.choice(BIQUAD_TARGETS), "deviation": deviation, "on_grid": False}
        )
    rng.shuffle(queries)
    return queries


def ga_seeds(seed: int) -> list[int]:
    rng = random.Random(f"ga:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(GA_SEEDS_PER_RUN)]


def make_plan(workload: str, seed: int, workdir: Path, tiny: bool) -> dict:
    """Generate the workload's inputs under ``workdir`` and return its plan."""
    size = SIZES[workload][1 if tiny else 0]
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "tiny": tiny, "netlist": None}
    if workload == "sweep-ladder":
        netlist = inputs / "ladder.cir"
        netlist.write_text(ladder_netlist(size["sections"], seed))
        plan["netlist"] = str(netlist)

    if workload == "optimize-biquad":
        base = ["optimize", "--population-size", str(size["population"]),
                "--generations", str(size["generations"])]
        plan["kind"] = "cli"
        plan["argv"] = [base + ["--seed", str(s)] for s in ga_seeds(seed)]
    elif workload == "sweep-ladder":
        # a band ending near the ladder's cutoff keeps every variant above about -150 dB
        plan["kind"] = "cli"
        plan["argv"] = [["simulate", "--netlist", plan["netlist"], "--grid", str(size["grid"]),
                         "--f-max", "2"]]
    else:
        queries = inputs / "queries.json"
        queries.write_text(json.dumps(diagnose_queries(size["queries"], seed)))
        plan["kind"] = "diagnose"
        plan["queries"] = str(queries)
        plan["vector"] = list(DIAGNOSE_VECTOR)
    return plan
