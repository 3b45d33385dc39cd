"""Parametric fault universe and golden/faulty response evaluation.

A fault is a single passive component pushed off its nominal value by a
signed fractional deviation. The deviation grid is symmetric around the
nominal point, e.g. the default 0.6..1.4 range in 0.1 steps yields the
eight deviations -0.4..-0.1, +0.1..+0.4 per component; zero is never a
fault, it denotes the golden circuit and is stored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .acsim import MnaSystem, ResponseCurve, magnitudes_db, solve_stacked
from .errors import ConfigError, SimulationError
from .netlist import PASSIVE_KINDS, Circuit, apply_deviation

DEFAULT_RANGE_LOW = 0.6
DEFAULT_RANGE_HIGH = 1.4
DEFAULT_STEP = 0.1

GOLDEN_LABEL = "__golden__"


@dataclass(frozen=True)
class FaultSpec:
    """One (component, fractional deviation) pair."""

    component: str
    deviation: float

    def __post_init__(self):
        if not math.isfinite(self.deviation):
            raise ValueError(
                f"deviation of {self.component} must be finite, got {self.deviation}"
            )
        if 1.0 + self.deviation <= 0.0:
            raise ValueError(
                f"deviation {self.deviation} would zero out {self.component}"
            )


def check_grid(range_low: float, range_high: float, step: float) -> None:
    """Raise ConfigError unless 0 < range_low < 1 < range_high, each a whole
    number of ``step`` from 1.0 (the rule of :class:`FaultConfig`)."""
    if not (0.0 < range_low < 1.0 < range_high):
        raise ConfigError(
            f"need 0 < range_low < 1 < range_high, got "
            f"{range_low}..{range_high}"
        )
    if not 0.0 < step < math.inf:
        raise ConfigError(f"step must be positive and finite, got {step}")
    for span, name in (
        (1.0 - range_low, "range_low"),
        (range_high - 1.0, "range_high"),
    ):
        steps = span / step
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(
                f"{name} is not an integer number of steps from 1.0 "
                f"(span {span:g}, step {step:g})"
            )


@dataclass(frozen=True)
class FaultConfig:
    """Fault targets plus the multiplier range and step of the deviation grid."""

    targets: tuple[str, ...]
    range_low: float = DEFAULT_RANGE_LOW
    range_high: float = DEFAULT_RANGE_HIGH
    step: float = DEFAULT_STEP

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.targets:
            raise ConfigError("fault target list is empty")
        if len(set(self.targets)) != len(self.targets):
            raise ConfigError("duplicate fault target")
        check_grid(self.range_low, self.range_high, self.step)

    def deviations(self) -> tuple[float, ...]:
        """Grid of nonzero deviations, ascending."""
        n_lo = round((1.0 - self.range_low) / self.step)
        n_hi = round((self.range_high - 1.0) / self.step)
        return tuple(
            round(k * self.step, 12) for k in range(-n_lo, n_hi + 1) if k != 0
        )


def enumerate_faults(config: FaultConfig) -> tuple[FaultSpec, ...]:
    """All grid faults in (target order, ascending deviation) order."""
    grid = config.deviations()
    return tuple(
        FaultSpec(target, dev) for target in config.targets for dev in grid
    )


@dataclass(frozen=True)
class FaultDictionary:
    """Golden sweep plus one sweep per enumerated fault."""

    golden: ResponseCurve
    entries: dict[FaultSpec, ResponseCurve]
    config: FaultConfig

    def __post_init__(self):
        expected = enumerate_faults(self.config)
        if tuple(self.entries.keys()) != expected:
            raise ValueError("dictionary entries do not match the configured grid")


def validate_targets(circuit: Circuit, config: FaultConfig) -> None:
    """Every target must name a passive element of the circuit."""
    for target in config.targets:
        element = circuit.element(target)  # ValueError when unknown
        if element.kind not in PASSIVE_KINDS:
            raise ValueError(
                f"{target}: only resistor/capacitor/inductor values can be deviated"
            )


class FaultEnsemble:
    """Golden circuit plus every grid fault, stamped once for batched solves.

    Row 0 of :meth:`magnitudes` is the golden response; row 1+k follows the
    order of :func:`enumerate_faults`. All variants share one topology, so
    their MNA matrices stack.
    """

    __slots__ = ("circuit", "config", "specs", "_g", "_c", "_rhs", "_out", "_amp")

    def __init__(self, circuit: Circuit, config: FaultConfig):
        validate_targets(circuit, config)
        self.circuit = circuit
        self.config = config
        self.specs = enumerate_faults(config)
        systems = [MnaSystem(circuit)]
        for spec in self.specs:
            systems.append(MnaSystem(apply_deviation(circuit, spec)))
        self._g = np.stack([s.g for s in systems])
        self._c = np.stack([s.c for s in systems])
        self._rhs = systems[0].rhs
        self._out = systems[0].out_index
        self._amp = systems[0].amplitude

    def magnitudes(self, omegas) -> np.ndarray:
        """dB magnitudes, shape (1 + n_faults, n_frequencies)."""
        omegas = np.asarray(omegas, dtype=float)
        voltages = solve_stacked(self._g, self._c, self._rhs, omegas)
        if self._out < 0:
            raise SimulationError("output node is ground; response is identically zero")
        gains = voltages[:, :, self._out] / self._amp
        return magnitudes_db(gains, np.broadcast_to(omegas, gains.shape))


@lru_cache(maxsize=16)
def ensemble_for(circuit: Circuit, config: FaultConfig) -> FaultEnsemble:
    """Cached ensemble; circuits and configs are immutable so reuse is safe."""
    return FaultEnsemble(circuit, config)


def evaluate_at(circuit: Circuit, fault, frequencies) -> tuple[float, ...]:
    """dB magnitudes of the (possibly deviated) circuit at given frequencies.

    ``fault`` is a FaultSpec, or None for the golden circuit. Frequencies
    are angular (rad/s), in any order, all positive.
    """
    omegas = np.asarray(frequencies, dtype=float)
    if omegas.ndim != 1 or len(omegas) == 0:
        raise ValueError("frequencies must be a non-empty 1-D sequence")
    if np.any(omegas <= 0.0):
        raise ValueError("frequencies must be positive")
    target = circuit if fault is None else apply_deviation(circuit, fault)
    gains = MnaSystem(target).gains(omegas)
    return tuple(magnitudes_db(gains, omegas).tolist())


def build_dictionary(circuit: Circuit, config: FaultConfig, grid) -> FaultDictionary:
    """Sweep the golden circuit and every enumerated fault over ``grid``."""
    validate_targets(circuit, config)
    omegas = np.asarray(grid, dtype=float)
    if omegas.ndim != 1 or len(omegas) == 0:
        raise ValueError("frequency grid must be a non-empty 1-D sequence")
    if omegas[0] <= 0.0 or np.any(np.diff(omegas) <= 0.0):
        raise ValueError("frequency grid must be positive and strictly increasing")
    golden_curve = _sweep_system(MnaSystem(circuit), omegas)
    entries: dict[FaultSpec, ResponseCurve] = {}
    for spec in enumerate_faults(config):
        try:
            entries[spec] = _sweep_system(
                MnaSystem(apply_deviation(circuit, spec)), omegas
            )
        except SimulationError as exc:
            raise SimulationError(
                f"fault ({spec.component}, {spec.deviation:+g}) failed: {exc}"
            ) from exc
    return FaultDictionary(golden_curve, entries, config)


def _sweep_system(system: MnaSystem, omegas: np.ndarray) -> ResponseCurve:
    mags = magnitudes_db(system.gains(omegas), omegas)
    return ResponseCurve(tuple(omegas.tolist()), tuple(mags.tolist()))


def write_dictionary_csv(path, dictionary: FaultDictionary, frequencies=None) -> None:
    """``component,deviation,freq,mag_db`` rows; golden rows lead."""
    freqs = (
        dictionary.golden.frequencies if frequencies is None else tuple(frequencies)
    )
    with open(path, "w", newline="") as fh:
        fh.write("component,deviation,freq,mag_db\n")
        for f, m in zip(freqs, dictionary.golden.magnitudes_db):
            fh.write(f"{GOLDEN_LABEL},0,{f:.17g},{m:.17g}\n")
        for spec, curve in dictionary.entries.items():
            for f, m in zip(freqs, curve.magnitudes_db):
                fh.write(
                    f"{spec.component},{spec.deviation:.17g},{f:.17g},{m:.17g}\n"
                )
