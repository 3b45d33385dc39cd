"""Parametric fault universe and golden/faulty response evaluation.

A fault is a single passive component pushed off its nominal value by a
signed fractional deviation. The deviation grid is symmetric around the
nominal point, e.g. the default 0.6..1.4 range in 0.1 steps yields the
eight deviations -0.4..-0.1, +0.1..+0.4 per component; zero is never a
fault, it denotes the golden circuit and is stored once.

Every magnitude comes from ``acsim.MnaSystem``: one cached golden system
per circuit, whose faults are rank-one updates of the golden solve.
:class:`FaultEnsemble` adds every grid fault to it (dictionary,
trajectories, GA), and :func:`evaluate_at` adds the one fault a query
asks about, through the same update code. The fault dictionary is the
ensemble's (1 + faults, frequencies) dB array itself; its ``golden`` and
``entries`` curves are views built on demand.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .acsim import MnaSystem, ResponseCurve
from .errors import ConfigError
from .netlist import Circuit

DEFAULT_RANGE_LOW = 0.6
DEFAULT_RANGE_HIGH = 1.4
DEFAULT_STEP = 0.1

GOLDEN_LABEL = "__golden__"
_GOLDEN_NAME = "golden circuit"


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

    @property
    def label(self) -> str:
        """How solver errors name this fault."""
        return f"fault ({self.component}, {self.deviation:+g})"


def check_grid(range_low: float, range_high: float, step: float) -> tuple[int, int]:
    """Raise ConfigError unless 0 < range_low < 1 < range_high, each a whole
    number of ``step`` from 1.0 (the rule of :class:`FaultConfig`).

    Returns those whole numbers, the steps below and above 1.0, whose sum
    is the number of faults per target; nothing is built.
    """
    if not (0.0 < range_low < 1.0 < range_high):
        raise ConfigError(
            f"need 0 < range_low < 1 < range_high, got "
            f"{range_low}..{range_high}"
        )
    if not 0.0 < step < math.inf:
        raise ConfigError(f"step must be positive and finite, got {step}")
    counts = []
    for span, name in ((1.0 - range_low, "range_low"), (range_high - 1.0, "range_high")):
        steps = span / step
        if not math.isfinite(steps):
            raise ConfigError(f"{name} is too many steps from 1.0 (span {span:g}, step {step:g})")
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(
                f"{name} is not an integer number of steps from 1.0 "
                f"(span {span:g}, step {step:g})"
            )
        counts.append(round(steps))
    return tuple(counts)


@dataclass(frozen=True)
class FaultConfig:
    """Fault targets plus the multiplier range and step of the deviation grid.

    The grid, :attr:`n_below` and :attr:`faults` are built once per config;
    they are not fields, so equality and hashing ignore them."""

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
        below, above = check_grid(self.range_low, self.range_high, self.step)
        grid = tuple(round(k * self.step, 12) for k in range(-below, above + 1) if k != 0)
        object.__setattr__(self, "_deviations", grid)

    def deviations(self) -> tuple[float, ...]:
        """Grid of nonzero deviations, ascending."""
        return self._deviations

    @cached_property
    def n_below(self) -> int:
        """Count of negative deviations: the golden point's row in a trajectory."""
        return bisect_left(self._deviations, 0.0)

    @cached_property
    def faults(self) -> tuple[FaultSpec, ...]:
        """All grid faults in (target order, ascending deviation) order."""
        return tuple(FaultSpec(t, dev) for t in self.targets for dev in self._deviations)


def enumerate_faults(config: FaultConfig) -> tuple[FaultSpec, ...]:
    """The config's own :attr:`FaultConfig.faults` tuple."""
    return config.faults


@dataclass(frozen=True, eq=False)
class FaultDictionary:
    """Golden sweep plus one sweep per enumerated fault.

    ``magnitudes_db`` has shape (1 + faults, len(frequencies)): row 0 is
    the golden circuit and row 1 + k the k-th fault of
    :func:`enumerate_faults`, the row order of :class:`FaultEnsemble`.
    Frequencies are angular and strictly increasing. Two dictionaries are
    equal when their configs and arrays are.
    """

    config: FaultConfig
    frequencies: np.ndarray
    magnitudes_db: np.ndarray

    def __post_init__(self):
        shape = (1 + len(self.config.faults), len(self.frequencies))
        if self.magnitudes_db.shape != shape:
            raise ValueError(f"magnitudes of shape {self.magnitudes_db.shape} do not match {shape}")

    def __eq__(self, other):
        return (
            isinstance(other, FaultDictionary)
            and self.config == other.config
            and np.array_equal(self.frequencies, other.frequencies)
            and np.array_equal(self.magnitudes_db, other.magnitudes_db)
        )

    @property
    def golden(self) -> ResponseCurve:
        """Row 0 as a curve, built on each access."""
        return self._curve(0)

    @property
    def entries(self) -> dict[FaultSpec, ResponseCurve]:
        """Every fault row as a curve, in :func:`enumerate_faults` order."""
        faults = self.config.faults
        return {spec: self._curve(row) for row, spec in enumerate(faults, start=1)}

    def _curve(self, row: int) -> ResponseCurve:
        return ResponseCurve(tuple(self.frequencies.tolist()), tuple(self.magnitudes_db[row].tolist()))


class FaultEnsemble:
    """Golden circuit plus every grid fault, solved together.

    Row 0 of :meth:`magnitudes` is the golden response; row 1+k follows the
    order of :func:`enumerate_faults`. Each fault is a rank-one update of
    the circuit's cached golden system, so nothing is re-stamped.
    """

    __slots__ = ("_system",)

    def __init__(self, circuit: Circuit, config: FaultConfig):
        self._system = _golden_system(circuit).with_faults(config.faults)

    def magnitudes(self, omegas) -> np.ndarray:
        """dB magnitudes, shape (1 + n_faults, n_frequencies)."""
        return self._system.magnitudes(omegas)


@lru_cache(maxsize=16)
def _golden_system(circuit: Circuit) -> MnaSystem:
    """Cached golden MNA system; circuits are immutable so reuse is safe."""
    return MnaSystem(circuit, label=_GOLDEN_NAME)


@lru_cache(maxsize=16)
def ensemble_for(circuit: Circuit, config: FaultConfig) -> FaultEnsemble:
    """Cached ensemble; circuits and configs are immutable so reuse is safe."""
    return FaultEnsemble(circuit, config)


def evaluate_at(circuit: Circuit, fault, frequencies) -> tuple[float, ...]:
    """dB magnitudes of the (possibly deviated) circuit at given frequencies.

    ``fault`` is a FaultSpec, or None for the golden circuit. Frequencies
    are angular (rad/s), in any order, all positive. A fault row comes
    from the same right-hand sides and update code as its
    :class:`FaultEnsemble` row, so the two agree bit for bit.
    """
    system = _golden_system(circuit)
    if fault is None:
        return tuple(system.magnitudes(frequencies)[0].tolist())
    return tuple(system.with_faults([fault]).magnitudes(frequencies)[1].tolist())


def build_dictionary(circuit: Circuit, config: FaultConfig, grid) -> FaultDictionary:
    """Sweep the golden circuit and every enumerated fault over ``grid``."""
    omegas = np.array(grid, dtype=float)
    if np.any(np.diff(omegas) <= 0.0):
        raise ValueError("frequencies must be strictly increasing")
    magnitudes = ensemble_for(circuit, config).magnitudes(omegas)
    omegas.flags.writeable = magnitudes.flags.writeable = False
    return FaultDictionary(config, omegas, magnitudes)


def write_dictionary_csv(path, dictionary: FaultDictionary, frequencies=None) -> None:
    """``component,deviation,freq,mag_db`` rows; golden rows lead.

    ``frequencies`` replace the dictionary's in the freq column (the CLI
    writes the user's unit); a different count raises ``ValueError``.
    Each row of the array is one ``%`` format of a per-row template, its
    label joining the frequency columns: ``'%.17g' % x`` and
    ``f'{x:.17g}'`` give the same text, and a label's own ``%`` is
    escaped first.
    """
    freqs = np.asarray(dictionary.frequencies if frequencies is None else frequencies, float)
    if freqs.shape != dictionary.frequencies.shape:
        raise ValueError(f"need {len(dictionary.frequencies)} frequencies, got {freqs.size}")
    columns = [f",{f:.17g},%.17g\n" for f in freqs.tolist()]
    specs = dictionary.config.faults
    labels = [f"{GOLDEN_LABEL},0", *(f"{s.component},{s.deviation:.17g}" for s in specs)]
    with open(path, "w", newline="") as fh:
        fh.write("component,deviation,freq,mag_db\n")
        for label, row in zip(labels, dictionary.magnitudes_db):
            label = label.replace("%", "%%")
            fh.write((label + label.join(columns)) % tuple(row.tolist()))
