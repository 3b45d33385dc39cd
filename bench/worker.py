"""The workload process: set up, print ``ready``, run timed operations.

    python3 bench/worker.py PLAN.json RESULT.json --until EPOCH [--first N] [--trace 0|1]
    python3 bench/worker.py PLAN.json RESULT.json --setup-only

Runs in a fresh interpreter so that set-up time and peak memory are the
workload's own. Set-up imports trajdiag, parses the netlist and builds
the first fault ensemble (and, for diagnose, the trajectories); the
parent times it up to the ``ready`` line. The process then runs the
reference probe of ``probe.py`` ``SETUP_PROBES`` times and prints their
times as one JSON line, for the parent to normalize the set-up time.
Operations ``N, N+1, ...`` then run in a closed loop with one client
until the next one would end past ``--until`` (a ``time.time()`` value);
with ``--setup-only`` the process exits after the probes and writes no
result. One operation is one CLI call
(optimize or simulate, its stdout and stderr captured so terminal I/O is
not timed) or one diagnose query (``evaluate_at`` -> ``signature`` ->
``classify``, the calls that ``trajdiag diagnose --inject`` makes).
Between operations the probe runs again, outside the operations' times,
so that the parent can normalize each operation's time.

With ``--trace 1`` the wrappers of ``tracing.Tracer`` are installed
before set-up; the first half of the time runs traced, then the wrappers
are removed and the same operations run untraced, so the two halves give
the tracing overhead. Spans are written to ``trace.json`` next to the
result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import trajdiag  # noqa: E402
from trajdiag import cli, diagnose, faultlib, netlist, trajectory  # noqa: E402
from trajdiag.data import biquad_path  # noqa: E402

from probe import DUTY, probe  # noqa: E402
from tracing import Tracer  # noqa: E402

# probes right after set-up, in the process that set up
SETUP_PROBES = 3


class CliOps:
    """One ``trajdiag`` CLI call per operation, cycling through the argument lists."""

    def __init__(self, plan: dict, workdir: Path):
        path = plan["netlist"] or biquad_path()
        circuit = netlist.parse_netlist(Path(path).read_text())
        # the first ensemble build, through the public path optimize also takes
        trajectory.build_trajectories(
            circuit, faultlib.FaultConfig(circuit.passive_ids()), trajectory.TestVector((0.1, 1.0))
        )
        self.argv = plan["argv"]
        self.outdir = workdir / "ops"

    def __call__(self, index: int, label: str) -> dict:
        outdir = self.outdir / f"{label}{index:04d}"
        argv = self.argv[index % len(self.argv)] + ["--outdir", str(outdir)]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception as exc:  # the CLI must never raise; count it as failed
            return {"argv": index % len(self.argv), "outdir": str(outdir), "error": repr(exc)}
        record = {"argv": index % len(self.argv), "outdir": str(outdir)}
        if code != 0:
            record["error"] = f"exit {code}: {sink.getvalue().strip()[-300:]}"
        return record


class DiagnoseOps:
    """One diagnose query per operation against trajectories built once."""

    def __init__(self, plan: dict, workdir: Path):
        self.circuit = netlist.parse_netlist(biquad_path().read_text())
        config = faultlib.FaultConfig(self.circuit.passive_ids())
        self.vector = trajectory.TestVector(tuple(plan["vector"]))
        self.trajectories = trajectory.build_trajectories(self.circuit, config, self.vector)
        self.golden = faultlib.evaluate_at(self.circuit, None, self.vector.frequencies)
        queries = json.loads(Path(plan["queries"]).read_text())
        self.faults = [faultlib.FaultSpec(q["component"], q["deviation"]) for q in queries]
        self.first: dict[int, object] = {}

    def __call__(self, index: int, label: str):
        spec = self.faults[index % len(self.faults)]
        try:
            faulty = faultlib.evaluate_at(self.circuit, spec, self.vector.frequencies)
            query = trajectory.signature(self.golden, faulty)
            result = diagnose.classify(query, self.trajectories)
        except Exception as exc:  # reported as a failed query
            return {"error": repr(exc)}
        top = result.hypotheses[0] if result.hypotheses else None
        answer = None if top is None else [top.component, top.distance]
        seen = self.first.setdefault(index % len(self.faults), answer)
        if seen is not answer and seen != answer:
            return {"error": f"answer changed between passes: {seen} -> {answer}"}
        return None


def run_loop(op, until: float, first: int, label: str, tracer: Tracer | None = None) -> dict:
    """Closed loop from operation ``first`` until the next would end past ``until``.

    Between operations the reference probe runs until it has taken ``DUTY``
    of the loop's time so far; its times are returned as ``probe_s``.
    """
    durations, errors, records, probes, probe_after = [], {}, [], [probe()], [-1]
    probed = probes[0]
    start = perf_counter()
    index = first
    while True:
        if tracer is not None:
            tracer.op = index
        t0 = perf_counter()
        record = op(index, label)
        t1 = perf_counter()
        durations.append(t1 - t0)
        if record is not None:
            if "error" in record:
                errors[index] = record["error"]
            records.append(record)
        index += 1
        while probed < DUTY * (perf_counter() - start):
            probes.append(probe())
            probe_after.append(len(durations) - 1)
            probed += probes[-1]
        if time() + (t1 - t0) > until:
            break
    if tracer is not None:
        tracer.op = -1
    return {"op_s": durations, "loop_s": perf_counter() - start, "errors": errors,
            "records": records, "probe_s": probes, "probe_after": probe_after}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--until", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text())
    workdir = Path(args.result).parent
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ops = (CliOps if plan["kind"] == "cli" else DiagnoseOps)(plan, workdir)
    print("ready", flush=True)
    print(json.dumps([probe() for _ in range(SETUP_PROBES)]), flush=True)
    if args.setup_only:
        return 0

    result = {"trajdiag_file": trajdiag.__file__}
    if tracer is None:
        result["run"] = run_loop(ops, args.until, args.first, "op")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        half = time() + (args.until - time()) / 2
        result["traced"] = run_loop(ops, half, args.first, "traced", tracer)
        tracer.uninstall()
        result["untraced"] = run_loop(ops, args.until, args.first, "untraced")
        result["trace"] = tracer.summary()
        with open(workdir / "trace.json", "w") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end", "ok"],
                       "spans": tracer.spans}, fh)
    if isinstance(ops, DiagnoseOps):
        result["answers"] = {str(k): v for k, v in ops.first.items()}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
