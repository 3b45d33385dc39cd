"""trajdiag benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: the package is imported from ``src/`` of the checkout the
script sits in. The run generates the workload's inputs from ``--seed``,
times set-up in fresh interpreters, runs the workload process for
``--seconds``, checks every output and prints, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Set-up and
operation times are normalized by a reference probe timed next to them
(``probe.py``), so that the host's slow phases cancel. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run. Lines before it give the
sample counts, percentiles, machine facts and output digests; the same
goes to ``bench/_work/<workload>-s<seed>-t<trace>/result.json``. See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import probe  # noqa: E402
import workloads  # noqa: E402
from tracing import WRITERS, percentile  # noqa: E402

# sequential workload processes in an untraced run, each after SETUPS_PER_WORKER
# set-up-only processes; all their set-ups are the setup_s samples
WORKERS = 5
SETUPS_PER_WORKER = 3
SWEEP_SAMPLE_ROWS = 24
# the workload process must end well inside the run's 180 s limit
WORKER_GRACE_S = 100.0

# metric names and units; the metric functions below must give a value for each
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    """The run could not produce a result: a workload process crashed or hung."""


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _run_worker(workdir: Path, part: int, until: float | None, first: int = 0, trace: int = 0):
    """Run one workload process; return its result, its set-up time (to ``ready``)
    and the times of the probes it ran right after set-up.

    With ``until`` None the process only sets up and exits; its result is None.
    """
    result = workdir / f"worker{part}.json"
    command = [sys.executable, str(BENCH / "worker.py"), str(workdir / "plan.json"), str(result)]
    if until is None:
        command.append("--setup-only")
    else:
        command += ["--until", repr(until), "--first", str(first), "--trace", str(trace)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    # a process that hangs before its two lines is killed, which ends the reads
    watchdog = threading.Timer(WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        if ready != "ready\n":
            raise BenchError("workload process failed during set-up")
        try:
            probes = json.loads(proc.stdout.readline())
        except ValueError:
            raise BenchError("workload process failed after set-up") from None
        watchdog.cancel()
        code = proc.wait(timeout=max(0.0, (until or 0.0) - time.time()) + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process timed out") from None
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"workload process exited with {code}")
    return (None if until is None else json.loads(result.read_text())), setup_s, probes


def run_workers(workdir: Path, seconds: int, trace: int) -> tuple[dict, list[list[float]]]:
    """Run the workload; untraced, as WORKERS processes over equal slices of the time.

    Each slice starts with SETUPS_PER_WORKER set-up-only processes, then the
    workload process; every set-up is one ``setup_s`` sample. Samples and
    operations are spread over the whole run, so a slow spell on the host
    moves part of them rather than all. Returns the merged result and the
    set-ups as ``[seconds, mean time of the probes run right after]``.
    """
    start = time.time()
    if trace:
        worker, _, _ = _run_worker(workdir, 0, start + seconds, 0, 1)
        if "answers" in worker:
            worker["answers"] = {key: [answer] for key, answer in worker["answers"].items()}
        return worker, []
    parts, setups = [], []
    for part in range(WORKERS):
        for _ in range(SETUPS_PER_WORKER):
            _, setup_s, probes = _run_worker(workdir, part, None)
            setups.append([setup_s, statistics.fmean(probes)])
        first = sum(len(p["run"]["op_s"]) for p in parts)
        result, setup_s, probes = _run_worker(workdir, part,
                                              start + seconds * (part + 1) / WORKERS, first, 0)
        parts.append(result)
        setups.append([setup_s, statistics.fmean(probes)])
    merged = {
        "trajdiag_file": parts[0]["trajdiag_file"],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "run": {
            "op_s": [d for p in parts for d in p["run"]["op_s"]],
            "loop_s": sum(p["run"]["loop_s"] for p in parts),
            "errors": {k: v for p in parts for k, v in p["run"]["errors"].items()},
            "records": [r for p in parts for r in p["run"]["records"]],
            "probe_s": [d for p in parts for d in p["run"]["probe_s"]],
            "probe_after": [a + sum(len(q["run"]["op_s"]) for q in parts[:i])
                            for i, p in enumerate(parts) for a in p["run"]["probe_after"]],
        },
    }
    if "answers" in parts[0]:
        merged["answers"] = {}
        for p in parts:
            for key, answer in p["answers"].items():
                merged["answers"].setdefault(key, [])
                if answer not in merged["answers"][key]:
                    merged["answers"][key].append(answer)
    return merged, setups


def check_outputs(plan: dict, worker: dict) -> tuple[dict, dict, dict]:
    """Run the correctness checks; return failures by op, digests and quality figures."""
    import checks
    from trajdiag.faultlib import FaultConfig, enumerate_faults

    loops = {k: worker[k] for k in ("run", "traced", "untraced") if k in worker}
    failures: dict[str, list[str]] = {}
    for name, loop in loops.items():
        for index, error in loop["errors"].items():
            failures[f"{name}:{index}"] = [error]
    digests: dict = {}
    quality: dict = {}

    if plan["kind"] == "diagnose":
        queries = json.loads(Path(plan["queries"]).read_text())
        off_grid = hits = 0
        for key, answers in worker["answers"].items():
            query = queries[int(key)]
            answer = answers[0]
            problems = checks.check_diagnose(query, answer)
            if len(answers) > 1:
                problems.append(f"answers differ between workload processes: {answers}")
            if problems:
                # every execution of a failing query counts as a failed operation
                for name, loop in loops.items():
                    for index in range(int(key), len(loop["op_s"]), len(queries)):
                        failures.setdefault(f"{name}:{index}", problems)
            if not query["on_grid"]:
                off_grid += 1
                hits += answer is not None and answer[0] == query["component"]
        quality["top1_rate"] = hits / off_grid if off_grid else 0.0
        return failures, digests, quality

    records = [(name, r) for name, loop in loops.items() for r in loop["records"]]
    sweep = plan["workload"] == "sweep-ladder"
    if sweep:
        values = checks.ladder_values(Path(plan["netlist"]).read_text())
        faults = enumerate_faults(FaultConfig(tuple(values)))
        grid = int(plan["argv"][0][plan["argv"][0].index("--grid") + 1])
        rows = (1 + len(faults)) * grid
        step = max(1, rows // SWEEP_SAMPLE_ROWS)
        sample = sorted({0, rows - 1, *range(plan["seed"] % step, rows, step)})
    passed: set[str] = set()
    fitness_by_seed: dict[int, float] = {}
    for name, record in records:
        if "error" in record:
            continue
        outdir = Path(record["outdir"])
        key = f"{name}:{outdir.name}"
        files = checks.SWEEP_FILES if sweep else checks.OPTIMIZE_FILES
        try:
            digest = {f: checks.sha256(outdir / f) for f in files}
            if sweep:
                # identical bytes pass or fail identically; check each distinct file once
                problems = [] if digest["dictionary.csv"] in passed else checks.check_sweep(
                    outdir / "dictionary.csv", values, faults, grid, sample)
                if not problems:
                    passed.add(digest["dictionary.csv"])
            else:
                problems = checks.check_optimize(outdir)
                best = json.loads((outdir / "best_vector.json").read_text())
                fitness_by_seed[best["seed"]] = best["fitness"]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures[key] = problems
        digests.setdefault(f"argv{record['argv']}", digest if not problems else {})
    if fitness_by_seed:
        quality["ga_best_fitness"] = statistics.fmean(fitness_by_seed.values())
        quality["ga_seeds"] = len(fitness_by_seed)
    return failures, digests, quality


def normalized_ops(loop: dict) -> list[float]:
    return probe.normalize_ops(loop["op_s"], loop["probe_s"], loop["probe_after"])


def end_to_end_metrics(worker: dict, setups: list[list[float]]) -> dict:
    return {
        "setup_s": statistics.median(probe.normalize(s, [p]) for s, p in setups),
        "op_ms_norm": 1e3 * statistics.median(normalized_ops(worker["run"])),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def per_layer_metrics(worker: dict, quality: dict) -> dict:
    summary = worker["trace"]
    spans, counts = summary["spans"], summary["counts"]
    n_ops = len(worker["traced"]["op_s"])

    def row(name):
        return spans.get(name, {})

    def per_op_ms(name, key="self_s"):
        return 1e3 * row(name).get(key, 0.0) / n_ops

    def per_op(value):
        return value / n_ops

    fitness_calls = row("evolve.fitness").get("calls", 0)
    classify = row("diagnose.classify")
    traced = statistics.median(normalized_ops(worker["traced"]))
    untraced = statistics.median(normalized_ops(worker["untraced"]))
    return {
        "cli.main_self_ms": per_op_ms("cli.main"),
        "cli.write_ms": sum(per_op_ms(w, "total_s") for w in WRITERS),
        "cli.bytes_written": per_op(counts.get("cli.bytes_written", 0)),
        "netlist.parse_ms": row("netlist.parse").get("p50_ms", 0.0),
        "netlist.apply_deviation.calls": per_op(row("netlist.apply_deviation").get("calls", 0)),
        "acsim.gains_ms": per_op_ms("acsim.gains"),
        "acsim.gains.calls": per_op(row("acsim.gains").get("calls", 0)),
        "acsim.gains.points": per_op(counts.get("acsim.gains.points", 0)),
        "faultlib.ensemble_build_ms": 1e3 * row("faultlib.ensemble_build").get("setup_s", 0.0),
        "faultlib.magnitudes_ms": per_op_ms("faultlib.magnitudes"),
        "faultlib.magnitudes.points": per_op(counts.get("faultlib.magnitudes.points", 0)),
        "faultlib.build_dictionary_self_s": per_op_ms("faultlib.build_dictionary") / 1e3,
        "faultlib.write_dictionary_s": per_op_ms("faultlib.write_dictionary", "total_s") / 1e3,
        "faultlib.evaluate_at_self_ms": per_op_ms("faultlib.evaluate_at"),
        "trajectory.build_self_ms": per_op_ms("trajectory.build"),
        "trajectory.count_ms": per_op_ms("trajectory.count"),
        "trajectory.count.calls": per_op(row("trajectory.count").get("calls", 0)),
        "trajectory.count.segment_pairs": per_op(counts.get("trajectory.count.segment_pairs", 0)),
        "trajectory.count.incidences": per_op(counts.get("trajectory.count.incidences", 0)),
        "evolve.fitness.calls": per_op(fitness_calls),
        "evolve.fitness.unique_ratio": (
            counts.get("evolve.fitness.unique", 0) / fitness_calls if fitness_calls else 0.0
        ),
        "evolve.fitness.zero": per_op(counts.get("evolve.fitness.zero", 0)),
        "evolve.step_generation_ms": per_op_ms("evolve.step_generation"),
        "evolve.run_ga_self_s": per_op_ms("evolve.run_ga") / 1e3,
        "evolve.ga_best_fitness": quality.get("ga_best_fitness", 0.0),
        "diagnose.classify_ms_p50": classify.get("p50_ms", 0.0),
        "diagnose.classify_ms_p99": classify.get("p99_ms", 0.0),
        "diagnose.nominal": per_op(counts.get("diagnose.nominal", 0)),
        "diagnose.ambiguous": per_op(counts.get("diagnose.ambiguous", 0)),
        "diagnose.top1_rate": quality.get("top1_rate", 0.0),
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
        "trace.span_failures": sum(r.get("failures", 0) for r in spans.values()),
    }


def self_time_shares(worker: dict) -> list[tuple[str, float]]:
    """Each span's share of the traced operations' wall time, largest first."""
    total = sum(worker["traced"]["op_s"])
    shares = [(name, row["self_s"] / total) for name, row in worker["trace"]["spans"].items()]
    covered = sum(share for _, share in shares)
    shares.append(("(outside spans)", 1.0 - covered))
    return sorted(shares, key=lambda item: -item[1])


def report_lines(workload, seed, trace, worker, setups, failures, quality, digests, machine):
    loop = worker["run"] if "run" in worker else worker["traced"]
    ops = sorted(loop["op_s"])
    lines = [
        f"workload {workload} seed {seed} trace {trace}: {len(ops)} operations "
        f"in {loop['loop_s']:.2f} s, {len(failures)} failed",
        "machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()),
    ]
    # the highest percentile with at least ten samples beyond it
    tail = next((q for q in (0.999, 0.99, 0.9) if len(ops) * (1 - q) >= 10), None)
    latency = (f"operation latency (n={len(ops)}): p10 {1e3 * percentile(ops, 0.1):.4g} ms, "
               f"p50 {1e3 * statistics.median(ops):.4g} ms")
    if tail is not None:
        latency += f", p{100 * tail:g} {1e3 * percentile(ops, tail):.4g} ms"
    lines.append(latency)
    probes = sorted(loop["probe_s"])
    lines.append(f"reference probe (n={len(probes)}): p10 {1e3 * percentile(probes, 0.1):.4g} ms, "
                 f"p50 {1e3 * statistics.median(probes):.4g} ms; reference "
                 f"{1e3 * probe.REFERENCE_S:g} ms")
    if setups:
        lines.append(f"set-up (n={len(setups)}): median {statistics.median(s for s, _ in setups):.4f} s; "
                     "samples " + ", ".join(f"{s:.4f}" for s, _ in setups))
    lines += [f"quality: {k} = {v:.6g}" for k, v in quality.items()]
    for label, files in digests.items():
        lines += [f"sha256 {label} {name} {digest}" for name, digest in files.items()]
    if trace:
        lines.append("self-time share of traced operations:")
        lines += [f"  {name:<28s} {100 * share:6.2f}%"
                  for name, share in self_time_shares(worker) if share >= 0.001]
    for key, problems in list(failures.items())[:10]:
        lines.append(f"FAILED {key}: {'; '.join(problems)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs; used by the benchmark's smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "trajdiag" / "__init__.py").is_file():
        print(f"error: no trajdiag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = BENCH / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.make_plan(args.workload, args.seed, workdir, args.tiny)
    (workdir / "plan.json").write_text(json.dumps(plan, indent=1))
    try:
        worker, setups = run_workers(workdir, args.seconds, args.trace)
        if Path(worker["trajdiag_file"]).resolve().parent != (SRC / "trajdiag").resolve():
            raise BenchError(f"workload imported trajdiag from {worker['trajdiag_file']}")
        failures, digests, quality = check_outputs(plan, worker)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir / "ops", ignore_errors=True)

    if args.trace:
        metrics, listed = per_layer_metrics(worker, quality), SPEC["per_layer"]
    else:
        metrics, listed = end_to_end_metrics(worker, setups), SPEC["end_to_end"]
    attempted = sum(len(worker[k]["op_s"]) for k in ("run", "traced", "untraced") if k in worker)
    machine = machine_facts()
    lines = report_lines(args.workload, args.seed, args.trace, worker, setups, failures,
                         quality, digests, machine)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    (workdir / "result.json").write_text(json.dumps(
        {**result, "machine": machine, "setup_samples": setups, "quality": quality,
         "op_s": {k: worker[k]["op_s"] for k in ("run", "traced", "untraced") if k in worker},
         "probe_s": {k: worker[k]["probe_s"] for k in ("run", "traced", "untraced") if k in worker},
         "probe_after": {k: worker[k]["probe_after"] for k in ("run", "traced", "untraced")
                         if k in worker},
         "digests": digests, "failures": failures, "report": lines}, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
