"""Parametric fault universe and golden/faulty response evaluation.

A fault is a single passive component pushed off its nominal value by a
signed fractional deviation. The deviation grid is symmetric around the
nominal point, e.g. the default 0.6..1.4 range in 0.1 steps yields the
eight deviations -0.4..-0.1, +0.1..+0.4 per component; zero is never a
fault, it denotes the golden circuit and is stored once.

Every magnitude comes from the circuit's cached golden ``MnaSystem``
(``acsim._golden_system``), whose faults are rank-one updates of the
golden solve. :class:`FaultEnsemble` adds every grid fault to it
(dictionary, trajectories, GA), and :func:`evaluate_at` adds the one
fault a query asks about, through the same update code. The fault dictionary is the
ensemble's (1 + faults, frequencies) dB array itself; its ``golden`` and
``entries`` curves are views built on demand.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .acsim import ResponseCurve, _frequencies, _golden_system
from .errors import ConfigError
from .netlist import Circuit

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


def check_targets(targets: tuple[str, ...]) -> None:
    """Raise ConfigError unless ``targets`` is non-empty and names no
    component twice (the rule of :class:`FaultConfig`)."""
    if not targets:
        raise ConfigError("fault target list is empty")
    if len(set(targets)) != len(targets):
        raise ConfigError("duplicate fault target")


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
        if isinstance(self.targets, str):
            # tuple() would split it into one-letter targets
            raise ConfigError(
                f"targets must be a sequence of component ids, not the string {self.targets!r}"
            )
        object.__setattr__(self, "targets", tuple(self.targets))
        check_targets(self.targets)
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
def ensemble_for(circuit: Circuit, config: FaultConfig) -> FaultEnsemble:
    """Cached ensemble; circuits and configs are immutable so reuse is safe."""
    return FaultEnsemble(circuit, config)


# frequency sets whose golden solve evaluate_at keeps; a test station
# applies one vector to every unit
_GOLDEN_SETS = 4


@lru_cache(maxsize=_GOLDEN_SETS)
def _kept_golden_step(system, frequencies: tuple) -> tuple:
    """The checked ``frequencies`` as an array, then the golden step of a
    cached golden system there, all read-only.

    ``system`` hashes by identity, as each circuit's golden system is one
    object. The check runs here, on a miss only, so a set that fails it,
    like a golden solve that raises, is not kept."""
    omegas = _frequencies(frequencies)
    with np.errstate(all="ignore"):
        arrays = (omegas, *system._golden_step(omegas))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _set_key(frequencies) -> tuple:
    """``frequencies`` as a key of :func:`_kept_golden_step`: a tuple or
    list as its own values, unchecked, and anything else (an array, say)
    checked and as floats."""
    if type(frequencies) in (tuple, list):
        key = tuple(frequencies)
        try:
            hash(key)
            return key
        except TypeError:  # a nested list, say: the check below names it
            pass
    return tuple(_frequencies(frequencies).tolist())


def evaluate_at(circuit: Circuit, fault, frequencies) -> tuple[float, ...]:
    """dB magnitudes of the (possibly deviated) circuit at given frequencies.

    ``fault`` is a FaultSpec, or None for the golden circuit. Frequencies
    are angular (rad/s), in any order, all positive. A fault row comes
    from the same right-hand sides and update code as its
    :class:`FaultEnsemble` row, so the two agree bit for bit; the fault's
    update goes to the solve as it is, without a copied system.

    The golden solve does not depend on the fault, so it is kept, read-only,
    for the last ``_GOLDEN_SETS`` (4) frequency sets of at most one solve
    block (153 frequencies on the bundled biquad): a repeated set, such as
    a test vector applied to unit after unit, is found by its values,
    skips the frequency check it passed when it was kept, and solves only
    the fault's rank-one row, with the same bits. A set that fails the
    check, or whose golden solve raises, is not kept and raises on every
    call; a larger set runs the block loop.
    """
    golden = _golden_system(circuit)
    rows = golden._fault_rows(fault)
    key = _set_key(frequencies)
    if len(key) > golden._block(len(rows[0])):
        return tuple(golden._solve(_frequencies(frequencies), db=True, rows=rows)[-1].tolist())
    kept = _kept_golden_step(golden, key)
    return tuple(golden._solve(kept[0], db=True, golden=kept[1:], rows=rows)[-1].tolist())


def build_dictionary(circuit: Circuit, config: FaultConfig, grid) -> FaultDictionary:
    """Sweep the golden circuit and every enumerated fault over ``grid``."""
    omegas = np.array(grid, dtype=float)
    if np.any(np.diff(omegas) <= 0.0):
        raise ValueError("frequencies must be strictly increasing")
    magnitudes = ensemble_for(circuit, config).magnitudes(omegas)
    omegas.flags.writeable = magnitudes.flags.writeable = False
    return FaultDictionary(config, omegas, magnitudes)


# Powers of ten up to 10^22 are exact doubles; fixed notation needs 10^0..10^20.
_POW10 = np.array([float(10**p) for p in range(23)])
_TEXT_WIDTH = 24  # the longest '%.17g' text: '-1.2345678901234567e-308'
_CHUNK_VALUES = 2048  # values per written chunk: bounds the writer's working memory
_LABEL = b"@"  # stands for the row's label in each line until the label goes in


def _two_product(a, b):
    """``(p, e)`` with ``p = fl(a * b)`` and ``p + e == a * b`` exactly
    (Dekker's product on Veltkamp's split; no overflow for these inputs)."""

    def split(v):
        c = 134217729.0 * v  # 2^27 + 1
        high = c - (c - v)
        return high, v - high

    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@lru_cache(maxsize=1)
def _text_tables():
    """The tables of :func:`_format_g17`, built on first use:

    - ``groups``: the four ASCII digits of 0..9999, each as one uint32;
    - ``trailing``: the trailing zeros of 0..9999 written with four digits;
    - ``heads``: ``-0.`` and the leading digit 0..9, each as one uint32;
    - ``layouts``: a (24, 714) table whose column for (sign, exponent
      -4..16, digits kept 1..17) gives the source byte of each text byte.
      A value's 24 source bytes are ``-``, ``0``, ``.``, its 17 digits and
      NULs.

    Small integer types keep the temporaries small.
    """
    n = np.arange(10_000, dtype=np.uint16)
    digits = n[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    digits = (digits + ord("0")).astype(np.uint8)
    trailing = np.zeros(10_000, np.uint8)
    for z in range(1, 5):
        trailing[n % 10**z == 0] = z
    heads = np.zeros((10, 4), np.uint8)
    heads[:, :3] = np.frombuffer(b"-0.", np.uint8)
    heads[:, 3] = digits[:10, 3]
    layouts = np.full((2, 21, 17, _TEXT_WIDTH), 20, np.intp)
    for negative in (0, 1):
        for k in range(-4, 17):
            for kept in range(1, 18):
                source = [0] * negative
                if k < 0:
                    source += [1, 2, *[1] * (-k - 1), *range(3, 3 + kept)]
                else:
                    source += range(3, 4 + k)
                    if kept > k + 1:
                        source += [2, *range(4 + k, 3 + kept)]
                layouts[negative, k + 4, kept - 1, : len(source)] = source
    return (
        digits.view(np.uint32).ravel(),
        trailing,
        heads.view(np.uint32).ravel(),
        layouts.reshape(-1, _TEXT_WIDTH).T.copy(),
    )


def _digits(magnitude):
    """The 17 significant digits of each value in [1e-4, 1e17), rounded
    half to even, as ``(source, k, dropped)``: the rows of 24 source bytes
    of :func:`_text_tables`, as uint32, the decimal exponents and the
    counts of trailing zero digits.

    ``k`` comes from ``log10``, checked exactly: the two-product
    ``magnitude 10^(16 - k) = hi + lo`` must lie in [1e16, 1e17).
    """
    groups, trailing, heads, _ = _text_tables()
    k = np.clip(np.floor(np.log10(magnitude)), -4, 16).astype(np.intp)
    hi, lo = _two_product(magnitude, _POW10[16 - k])
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if near.size:  # at a bound, or log10 off by one next to a power of ten
        top, rest = hi[near], lo[near]
        above = (top > 1e17) | ((top == 1e17) & (rest >= 0.0))
        k[near] += above.astype(np.intp) - ((top < 1e16) | ((top == 1e16) & (rest < 0.0)))
        hi[near], lo[near] = _two_product(magnitude[near], _POW10[16 - k[near]])
    # hi >= 1e16 > 2^53 is an even whole number, so rounding lo half to
    # even rounds hi + lo half to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # a carry to 10^17 raises k by one; k stays <= 16, as no double lies
    # in [1e17 - 0.5, 1e17)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    upper = d // 10**8
    lower = d - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    source = np.zeros((magnitude.size, _TEXT_WIDTH // 4), np.uint32)
    source[:, 0] = heads[lead]
    dropped = np.zeros(magnitude.size, np.intp)
    first, third = upper // 10**4, lower // 10**4
    quads = (first, upper - first * 10**4, third, lower - third * 10**4)
    for column, group in enumerate(quads, start=1):
        source[:, column] = groups[group]
        dropped = trailing[group] + (group == 0) * dropped
    return source, k, dropped


def _format_g17(values) -> np.ndarray:
    """``'%.17g' % x`` of each of at most ``_CHUNK_VALUES`` floats, as the
    rows of a (values, 24) uint8 array, NUL-padded on the right.

    A value with 1e-4 <= |x| < 1e17 prints in fixed notation: its text is
    one gather from its :func:`_digits` by the layout of (sign, exponent,
    digits before the trailing zeros). Every other value (zeros,
    non-finite, the exponent forms) is formatted by ``%`` itself.
    """
    x = np.asarray(values, dtype=float).ravel()
    magnitude = np.abs(x)
    other = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e17)))
    magnitude[other] = 1.0  # formatted by % below
    source, k, dropped = _digits(magnitude)
    code = (np.signbit(x) * 21 + k + 4) * 17 + 16 - dropped
    gather = _text_tables()[3].take(code, axis=1)
    gather += np.arange(0, _TEXT_WIDTH * x.size, _TEXT_WIDTH)
    text = source.view(np.uint8).ravel().take(gather).T
    for i in other.tolist():
        chars = b"%.17g" % x[i]
        text[i] = 0
        text[i, : len(chars)] = np.frombuffer(chars, np.uint8)
    return text


def write_dictionary_csv(path, dictionary: FaultDictionary, frequencies=None) -> None:
    """``component,deviation,freq,mag_db`` rows; golden rows lead.

    ``frequencies`` replace the dictionary's in the freq column (the CLI
    writes the user's unit); a different count raises ``ValueError``.
    Every number is ``'%.17g' % x``. The array goes out in chunks of at
    most ``_CHUNK_VALUES`` values: a (rows, columns, line) byte buffer of
    placeholder, freq and magnitude texts with NUL padding, which is
    dropped, then each row's label replaces the placeholder. The file is
    UTF-8.
    """
    freqs = np.asarray(dictionary.frequencies if frequencies is None else frequencies, float)
    if freqs.shape != dictionary.frequencies.shape:
        raise ValueError(f"need {len(dictionary.frequencies)} frequencies, got {freqs.size}")
    specs = dictionary.config.faults
    labels = [f"{GOLDEN_LABEL},0", *(f"{s.component},{s.deviation:.17g}" for s in specs)]
    labels = [label.encode("utf-8") for label in labels]
    magnitudes = dictionary.magnitudes_db
    width = min(max(freqs.size, 1), _CHUNK_VALUES)
    height = _CHUNK_VALUES // width
    freq_texts = [_format_g17(freqs[c : c + width]) for c in range(0, freqs.size, width)]
    line = 4 + 2 * _TEXT_WIDTH  # placeholder , freq , magnitude \n
    with open(path, "wb") as fh:
        fh.write(b"component,deviation,freq,mag_db\n")
        for r in range(0, len(magnitudes), height):
            for c, freq_text in zip(range(0, freqs.size, width), freq_texts):
                block = magnitudes[r : r + height, c : c + width]
                lines = np.zeros((*block.shape, line), np.uint8)
                lines[..., 0] = _LABEL[0]
                lines[..., 1] = lines[..., 2 + _TEXT_WIDTH] = ord(",")
                lines[..., 2 : 2 + _TEXT_WIDTH] = freq_text
                lines[..., 3 + _TEXT_WIDTH : -1] = _format_g17(block).reshape(
                    *block.shape, _TEXT_WIDTH
                )
                lines[..., -1] = ord("\n")
                fh.write(
                    b"".join(
                        row.tobytes().translate(None, b"\0").replace(_LABEL, label)
                        for row, label in zip(lines, labels[r : r + height])
                    )
                )
