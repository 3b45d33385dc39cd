"""Command-line front end wiring the whole pipeline.

Subcommands::

    trajdiag simulate   write dictionary.csv (golden + all fault sweeps)
    trajdiag optimize   run the GA; write ga_log.csv, best_vector.json,
                        trajectories.csv at the best vector
    trajdiag diagnose   classify a measurement (--measured m1,m2 | --inject C:d)
    trajdiag plot-data  render trajectories.csv to trajectories.svg

Settings come from an optional JSON config file (--config); every field
can be overridden by a flag of the same name. Exit codes: 0 success,
1 pipeline/numeric failure (including a non-finite diagnosis ranking and
running out of memory), 2 usage or configuration error (including a run
past the work limit, ``_WORK_LIMIT``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .acsim import log_grid
from .data import biquad_path
from .diagnose import classify, format_report, write_diagnosis_csv
from .errors import ConfigError, NetlistError, TrajdiagError
from .evolve import GaConfig, run_ga, write_ga_log_csv
from .faultlib import (
    FaultConfig,
    FaultSpec,
    build_dictionary,
    check_grid,
    check_targets,
    enumerate_faults,
    evaluate_at,
    write_dictionary_csv,
)
from .netlist import deviation_target, parse_netlist
from .trajectory import (
    TestVector,
    build_trajectories,
    read_trajectories_csv,
    signature,
    write_trajectories_csv,
)

_UNITS = {"rad/s": 1.0, "hz": 2.0 * math.pi}

# Largest |dB| accepted from --measured. Every positive float64 magnitude
# lies within about +-6500 dB (20 log10 of the largest and smallest
# doubles), so no measurement lies beyond this, and signatures within it
# cannot overflow the diagnosis's squared distances.
_MEASURED_LIMIT_DB = 1e4

# Most values a run may ask for, in each of three products: fault rows
# (golden + targets x faults per target) x grid points, GA population x test
# frequencies, and optimize's faults x faults segment pairs per test vector.
# Each is checked by arithmetic before anything is built, so a run past the
# limit exits 2 instead of filling memory first.
_WORK_LIMIT = 10**7
_ROWS_X_GRID = (
    "config field 'grid': grid points x fault rows "
    "(from 'targets', 'range_low', 'range_high' and 'step')"
)


@dataclass
class RunConfig:
    """Validated run settings; flat so JSON keys and flags line up.

    This is the one declaration of the run schema: each field is a JSON
    key and a ``--dashed-name`` flag, and values are coerced to the field's
    type. ``ga`` holds the GA settings built from the fields (band in rad/s).
    """

    netlist: str = ""
    outdir: str = "out"
    unit: str = "rad/s"
    f_min: float = GaConfig.f_min
    f_max: float = GaConfig.f_max
    grid: int = 201
    targets: tuple[str, ...] | None = None
    range_low: float = FaultConfig.range_low
    range_high: float = FaultConfig.range_high
    step: float = FaultConfig.step
    population_size: int = GaConfig.population_size
    generations: int = GaConfig.generations
    reproduction_rate: float = GaConfig.reproduction_rate
    mutation_rate: float = GaConfig.mutation_rate
    n_frequencies: int = GaConfig.n_frequencies
    seed: int = GaConfig.seed
    tol: float = 1e-6
    origin_tol: float = 1e-6
    ambiguity_margin: float = 0.05

    def __post_init__(self):
        if not self.netlist:
            self.netlist = str(biquad_path())
        if not Path(self.netlist).is_file():
            raise ConfigError(f"config field 'netlist': file not found: {self.netlist}")
        if not self.outdir:
            raise ConfigError("config field 'outdir': must not be empty")
        if self.targets is not None:
            try:
                check_targets(self.targets)
            except ConfigError as exc:
                raise ConfigError(f"config field 'targets': {exc}") from None
        self.unit = self.unit.lower()
        if self.unit not in _UNITS:
            raise ConfigError(
                f"config field 'unit': expected one of {sorted(_UNITS)}, got {self.unit!r}"
            )
        if self.grid < 1:
            raise ConfigError("config field 'grid': need at least one sweep point")
        for name in ("tol", "origin_tol"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"config field {name!r}: must be positive")
        if self.ambiguity_margin < 0.0:
            raise ConfigError("config field 'ambiguity_margin': must be non-negative")
        try:
            # without the netlist, count at least one target; _fault_config counts them all
            rows = _fault_rows(self, max(len(self.targets or ()), 1))
        except ConfigError as exc:
            raise ConfigError(f"config field 'range_low'/'range_high'/'step': {exc}") from None
        _check_work(rows * self.grid, _ROWS_X_GRID)
        # GaConfig's errors name their own fields
        self.ga = GaConfig(
            population_size=self.population_size,
            generations=self.generations,
            reproduction_rate=self.reproduction_rate,
            mutation_rate=self.mutation_rate,
            n_frequencies=self.n_frequencies,
            f_min=self.f_min * self.omega_scale,
            f_max=self.f_max * self.omega_scale,
            seed=self.seed,
        )
        _check_work(
            self.population_size * self.n_frequencies,
            "config field 'population_size': population x 'n_frequencies'",
        )

    @property
    def omega_scale(self) -> float:
        return _UNITS[self.unit]


_FIELD_TYPES = typing.get_type_hints(RunConfig)
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               list: "a list", dict: "an object"}


def _fault_rows(config: RunConfig, n_targets: int) -> int:
    """Golden + ``n_targets`` x the grid's faults per target, by arithmetic."""
    return 1 + n_targets * sum(check_grid(config.range_low, config.range_high, config.step))


def _check_work(values: int, what: str) -> None:
    if values > _WORK_LIMIT:
        raise ConfigError(f"{what} exceed the work limit of {_WORK_LIMIT:,} values")


def load_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Merge defaults, JSON config and CLI overrides, then validate."""
    values: dict = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
        for key in loaded:
            if key not in _FIELD_TYPES:
                raise ConfigError(f"config field {key!r}: unknown field")
        values.update(loaded)
    flags = {k: v for k, v in overrides.items() if v is not None}
    values.update(flags)
    try:
        for key, value in values.items():
            values[key] = _coerce(_FIELD_TYPES[key], value)
            if key in ("netlist", "outdir") and key not in flags:
                # a file name from the UTF-8 file, in the file system's encoding
                values[key] = os.fsdecode(values[key].encode("utf-8", "surrogateescape"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field {key!r}: {exc}") from None
    return RunConfig(**values)


def _coerce(kind, value):
    """``value`` (JSON value or flag string) as the declared field type."""
    if kind in (int, float) and isinstance(value, bool):
        raise TypeError(f"expected {kind.__name__}, got a boolean")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, got {value}")
        return int(value)
    if kind is float:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        return value
    got = _JSON_TYPES.get(type(value), value)
    if kind is str:
        if not isinstance(value, str):
            raise TypeError(f"expected a string, got {got}")
        return value
    # tuple[str, ...] | None: a list of strings, or one comma-separated string
    if value is None:
        return None
    if isinstance(value, str):
        return tuple(v for v in value.split(",") if v)
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"expected a list of strings or a comma string, got {got}")
    return tuple(value)


def _read_text(path: Path) -> str:
    """The text of a file the user named; ``ConfigError`` naming it if it
    cannot be read or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_circuit(config: RunConfig):
    return parse_netlist(_read_text(Path(config.netlist)))


def _fault_config(config: RunConfig, circuit, pairs: bool = False) -> FaultConfig:
    """The run's fault grid on ``circuit``, held to the work limit before it
    is built; with ``pairs`` (optimize) its faults x faults are too."""
    targets = circuit.passive_ids() if config.targets is None else config.targets
    rows = _fault_rows(config, len(targets))
    _check_work(rows * config.grid, _ROWS_X_GRID)
    if pairs:
        _check_work((rows - 1) ** 2, "config field 'step': faults x faults (segment pairs)")
    try:
        fault_config = FaultConfig(targets, config.range_low, config.range_high, config.step)
        # every fault is built first, then each target checked by its most negative one
        for spec in enumerate_faults(fault_config)[:: len(fault_config.deviations())]:
            deviation_target(circuit, spec)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"config field 'targets': {exc}") from None
    return fault_config


def _outdir(config: RunConfig) -> Path:
    out = Path(config.outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"config field 'outdir': cannot create {out}: {exc}") from None
    return out


def cmd_simulate(config: RunConfig) -> int:
    circuit = _load_circuit(config)
    fault_config = _fault_config(config, circuit)
    user_grid = log_grid(config.f_min, config.f_max, config.grid)
    omegas = user_grid * config.omega_scale
    if not (omegas[1:] > omegas[:-1]).all():
        raise ConfigError(
            f"config field 'grid': {config.grid} points are not distinct frequencies "
            f"between f_min and f_max"
        )
    out = _outdir(config)
    dictionary = build_dictionary(circuit, fault_config, omegas)
    write_dictionary_csv(out / "dictionary.csv", dictionary, frequencies=user_grid)
    print(
        f"wrote {out / 'dictionary.csv'}: golden + {len(dictionary.magnitudes_db) - 1} faults "
        f"x {config.grid} points"
    )
    return 0


def cmd_optimize(config: RunConfig) -> int:
    circuit = _load_circuit(config)
    fault_config = _fault_config(config, circuit, pairs=True)
    out = _outdir(config)
    scale = config.omega_scale
    best, log = run_ga(
        circuit, fault_config, config.ga, tol=config.tol, origin_tol=config.origin_tol
    )
    write_ga_log_csv(out / "ga_log.csv", log, frequency_scale=scale)
    payload = {
        "unit": config.unit,
        "frequencies": [f / scale for f in best.frequencies],
        "fitness": log.best_fitness,
        "intersections": log.best_intersections,
        "seed": log.seed,
    }
    (out / "best_vector.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    write_trajectories_csv(
        out / "trajectories.csv", build_trajectories(circuit, fault_config, best)
    )
    print(
        f"best vector {[f / scale for f in best.frequencies]} ({config.unit}): "
        f"fitness {log.best_fitness:g}, intersections {log.best_intersections}"
    )
    if log.best_fitness < 1.0:
        print(
            "warning: best fitness below 1; trajectories still intersect",
            file=sys.stderr,
        )
    return 0


def _load_best_vector(config: RunConfig) -> TestVector:
    path = Path(config.outdir) / "best_vector.json"
    if not path.is_file():
        raise ConfigError(f"missing {path}; run 'optimize' first")
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    unit = payload.get("unit", config.unit) if isinstance(payload, dict) else config.unit
    if isinstance(unit, str):
        unit = unit.lower()  # as RunConfig reads --unit
    if not isinstance(unit, str) or unit not in _UNITS:
        raise ConfigError(f"{path}: unknown unit {unit!r}")
    try:
        frequencies = payload["frequencies"]
        if not isinstance(frequencies, list):
            raise TypeError(f"expected a list of numbers, got {type(frequencies).__name__}")
        for f in frequencies:
            if isinstance(f, bool) or not isinstance(f, (int, float)):
                raise ValueError(f"could not convert {f!r} to a number")
        return TestVector(tuple(float(f) * _UNITS[unit] for f in frequencies))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: missing or bad 'frequencies' ({exc!r})") from None


def cmd_diagnose(config: RunConfig, measured: str | None, inject: str | None) -> int:
    circuit = _load_circuit(config)
    fault_config = _fault_config(config, circuit)
    tv = _load_best_vector(config)
    out = _outdir(config)
    golden = evaluate_at(circuit, None, tv.frequencies)

    if measured is not None:
        try:
            values = tuple(float(v) for v in measured.split(","))
        except ValueError:
            raise ConfigError("--measured: expected comma-separated dB values") from None
        if len(values) != len(tv.frequencies):
            raise ConfigError(
                f"--measured: expected {len(tv.frequencies)} values, got {len(values)}"
            )
        if not all(map(math.isfinite, values)):
            raise ConfigError("--measured: values must be finite")
        if any(abs(v) > _MEASURED_LIMIT_DB for v in values):
            raise ConfigError(f"--measured: values must lie within +-{_MEASURED_LIMIT_DB:g} dB")
        query = signature(golden, values)
    else:
        component, _, amount = inject.partition(":")
        if not amount:
            raise ConfigError("--inject: expected <component>:<deviation>")
        try:
            spec = FaultSpec(component, float(amount))
            deviation_target(circuit, spec)
        except ValueError as exc:
            raise ConfigError(f"--inject: {exc}") from None
        faulty = evaluate_at(circuit, spec, tv.frequencies)
        query = signature(golden, faulty)

    trajectories = build_trajectories(circuit, fault_config, tv)
    result = classify(
        query,
        trajectories,
        ambiguity_margin=config.ambiguity_margin,
        origin_tol=config.origin_tol,
    )
    if not all(
        math.isfinite(h.distance) and math.isfinite(h.estimated_deviation)
        for h in result.hypotheses
    ):
        raise TrajdiagError("diagnose: the ranking is not finite")
    write_diagnosis_csv(out / "diagnosis.csv", result)
    report = format_report(result)
    stdout = getattr(sys.stdout, "buffer", None)
    if stdout is None:  # an in-memory text stream
        sys.stdout.write(report)
    else:  # UTF-8 bytes, as the netlist's names were read, whatever the locale
        sys.stdout.flush()
        stdout.write(report.encode("utf-8"))
        stdout.flush()
    return 0


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)


def render_svg(trajectories, query=None) -> str:
    """Static SVG of the 2-D trajectory map; presentation only."""
    points = [p for t in trajectories for p in t.points[:, :2].tolist()]
    points.append((0.0, 0.0))
    if query is not None:
        points.append(tuple(query[:2]))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    lo_x, lo_y = min(xs) - 0.05 * span_x, min(ys) - 0.05 * span_y
    span_x *= 1.1
    span_y *= 1.1

    width, height, margin = 640.0, 480.0, 60.0

    def sx(x):
        return margin + (x - lo_x) / span_x * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - lo_y) / span_y * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for index, trajectory in enumerate(trajectories):
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}" for x, y in trajectory.points[:, :2].tolist()
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = 20.0 + 16.0 * index
        name = trajectory.component.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<rect x="{width - 150:.2f}" y="{ly - 9:.2f}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - 134:.2f}" y="{ly:.2f}" font-size="12" '
            f'font-family="sans-serif">{name}</text>'
        )
    ox, oy = sx(0.0), sy(0.0)
    parts.append(
        f'<path d="M {ox - 6:.2f} {oy:.2f} H {ox + 6:.2f} M {ox:.2f} {oy - 6:.2f} '
        f'V {oy + 6:.2f}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{ox + 8:.2f}" y="{oy - 8:.2f}" font-size="12" '
        f'font-family="sans-serif">golden</text>'
    )
    if query is not None:
        qx, qy = sx(query[0]), sy(query[1])
        star = []
        for k in range(10):
            radius = 9.0 if k % 2 == 0 else 3.8
            angle = -math.pi / 2 + k * math.pi / 5
            star.append(
                f"{qx + radius * math.cos(angle):.2f},{qy + radius * math.sin(angle):.2f}"
            )
        parts.append(f'<polygon points="{" ".join(star)}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot_data(config: RunConfig, query: str | None) -> int:
    path = Path(config.outdir) / "trajectories.csv"
    if not path.is_file():
        raise ConfigError(f"missing {path}; run 'optimize' first")
    try:
        trajectories = read_trajectories_csv(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if trajectories[0].dimension < 2:
        raise ConfigError(f"{path}: plot-data needs 2 or more test frequencies")
    query_point = None
    if query is not None:
        try:
            query_point = tuple(float(v) for v in query.split(","))
        except ValueError:
            raise ConfigError("--query: expected comma-separated coordinates") from None
        if len(query_point) != 2:
            raise ConfigError("--query: expected exactly two coordinates")
        if not all(map(math.isfinite, query_point)):
            raise ConfigError("--query: coordinates must be finite")
    svg = render_svg(trajectories, query_point)
    out = Path(config.outdir) / "trajectories.svg"
    out.write_text(svg, encoding="utf-8")
    print(f"wrote {out}: {len(trajectories)} trajectories")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each ``parse_args`` returns a
    fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="trajdiag",
        description="Analog fault diagnosis via signature-space fault trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"trajdiag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        for name in _FIELD_TYPES:
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, help=f"config field {name}")

    add_common(sub.add_parser("simulate", help="write the fault dictionary CSV"))
    add_common(sub.add_parser("optimize", help="evolve a test vector"))
    diag = sub.add_parser("diagnose", help="classify a measurement")
    add_common(diag)
    group = diag.add_mutually_exclusive_group(required=True)
    group.add_argument("--measured", help="comma-separated dB magnitudes")
    group.add_argument("--inject", help="<component>:<deviation> to simulate")
    plot = sub.add_parser("plot-data", help="render trajectories.csv to SVG")
    add_common(plot)
    plot.add_argument("--query", help="x,y query point marker")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if argv is None:
        # names given on the command line are matched against the netlist's,
        # which is read as UTF-8, so they are decoded as UTF-8 whatever the
        # locale; paths keep the encoding of the file system they name
        for name in ("inject", "targets"):
            value = getattr(args, name, None)
            if value is not None:
                setattr(args, name, os.fsencode(value).decode("utf-8", "surrogateescape"))
    try:
        config = load_config(args.config, {k: getattr(args, k) for k in _FIELD_TYPES})
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "optimize":
            return cmd_optimize(config)
        if args.command == "diagnose":
            return cmd_diagnose(config, args.measured, args.inject)
        return cmd_plot_data(config, args.query)
    except (ConfigError, NetlistError) as exc:
        # problems with what the user supplied, not with the computation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrajdiagError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory running '{args.command}'", file=sys.stderr)
        return 1
    except OSError as exc:
        # an output file could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
