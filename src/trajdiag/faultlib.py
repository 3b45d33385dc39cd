"""Parametric fault universe and golden/faulty response evaluation.

A fault is a single passive component pushed off its nominal value by a
signed fractional deviation. The deviation grid is symmetric around the
nominal point, e.g. the default 0.6..1.4 range in 0.1 steps yields the
eight deviations -0.4..-0.1, +0.1..+0.4 per component; zero is never a
fault, it denotes the golden circuit and is stored once.

Every magnitude comes from the circuit's cached golden ``MnaSystem``
(``acsim._golden_system``), whose faults are rank-one updates of the
golden solve. :class:`FaultEnsemble` solves it with the rows of every
grid fault (dictionary, trajectories, GA), and :func:`evaluate_at` with
the row of the one fault a query asks about; both build their rows with
``MnaSystem.fault_rows``. The fault dictionary is the ensemble's (1 +
faults, frequencies) dB array itself; its ``golden`` and ``entries``
curves are views built on demand.
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
    number of ``step`` from 1.0, and the lowest grid deviation, rounded as
    :class:`FaultConfig` rounds it, is above -1 (the rule of
    :class:`FaultConfig`).

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
    # the grid's lowest deviation, as FaultConfig rounds it
    lowest = round(-counts[0] * step, 12)
    if lowest <= -1.0:
        raise ConfigError(
            f"range_low rounds to deviation {lowest:g}, a multiplier of 0 or less "
            f"(range_low {range_low:g}, step {step:g})"
        )
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
    order of :func:`enumerate_faults`. It holds the circuit's cached golden
    system and the fault rows of every grid fault, each a rank-one update
    of that system, so nothing is stamped or copied.
    """

    __slots__ = ("_system", "_rows")

    def __init__(self, circuit: Circuit, config: FaultConfig):
        self._system = _golden_system(circuit)
        self._rows = self._system.fault_rows(config.faults)

    def magnitudes(self, omegas) -> np.ndarray:
        """dB magnitudes, shape (1 + n_faults, n_frequencies)."""
        return self._system._solve(_frequencies(omegas), self._rows)


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
    from the same right-hand sides and ``fault_rows`` code as its
    :class:`FaultEnsemble` row, so the two agree bit for bit.

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
    rows = golden.fault_rows(() if fault is None else (fault,))
    key = _set_key(frequencies)
    if len(key) > golden._block(1 + len(rows[0])):
        return tuple(golden._solve(_frequencies(frequencies), rows)[-1].tolist())
    kept = _kept_golden_step(golden, key)
    return tuple(golden._solve(kept[0], rows, kept[1:])[-1].tolist())


def build_dictionary(circuit: Circuit, config: FaultConfig, grid) -> FaultDictionary:
    """Sweep the golden circuit and every enumerated fault over ``grid``."""
    omegas = np.array(grid, dtype=float)
    if np.any(np.diff(omegas) <= 0.0):
        raise ValueError("frequencies must be strictly increasing")
    magnitudes = ensemble_for(circuit, config).magnitudes(omegas)
    omegas.flags.writeable = magnitudes.flags.writeable = False
    return FaultDictionary(config, omegas, magnitudes)


# Powers of ten up to 10^22 are exact doubles; the table range needs 10^8..10^20.
_POW10 = np.array([float(10**p) for p in range(23)])
# |x| in [_FAST_LOW, _FAST_HIGH) prints from the tables, in fixed notation
# with a decimal exponent of -4..8; every other value is printed by %
_FAST_LOW, _FAST_HIGH = 1e-4, 1e9
# A value's text field: ``-0.000``, the lead digit, a ``.`` slot after each
# of the first nine digits, then the last eight digits, as four uint64 words
#   -0.000d.  d.d.d.d.  d.d.d.d.  dddddddd
# A value keeps the bytes of its text and NULs the rest; the longest '%.17g'
# text, '-1.2345678901234567e-308', has 24 bytes.
_TEXT_WIDTH = 32
# Values per written chunk: bounds the writer's working memory. On the
# 145 x 201 ladder dictionary the write's tracemalloc peak is 484 KiB, in
# about 5.6 ms (2-core Xeon, Python 3.11, numpy 2.4).
_CHUNK_VALUES = 2048
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

    - ``heads``: ``-0.000``, the lead digit 0..9 and a ``.`` slot, each as
      one uint64 word;
    - ``dotted``: the four digits of 0..9999 after ``.`` slots,
      ``d.d.d.d.``, each as one uint64 word;
    - ``plain``: the four digits of 0..9999, each as one uint32;
    - ``trailing``: the trailing zeros of 0..9999 written with four digits;
    - ``masks``: one row of four uint64 words for each (sign, exponent
      -4..8, digits kept 1..17), 0xFF on each byte of the field its text
      keeps and 0 on the others.

    Small integer types keep the temporaries small.
    """
    n = np.arange(10_000, dtype=np.uint16)
    digits = n[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    digits = (digits + ord("0")).astype(np.uint8)
    trailing = np.zeros(10_000, np.uint8)
    for z in range(1, 5):
        trailing[n % 10**z == 0] = z
    heads = np.tile(np.frombuffer(b"-0.0000.", np.uint8), (10, 1))
    heads[:, 6] = digits[:10, 3]
    dotted = np.full((10_000, 8), ord("."), np.uint8)
    dotted[:, ::2] = digits
    # the field byte of each significant digit 1..17
    digit_at = [6, *range(8, 24, 2), *range(24, 32)]
    masks = np.zeros((2, 13, 17, _TEXT_WIDTH), np.uint8)
    for negative in (0, 1):
        for k in range(-4, 9):
            for kept in range(1, 18):
                keep = [0] * negative
                if k < 0:  # '0.', then -k - 1 zeros
                    keep += [1, 2, *range(3, 2 - k), *digit_at[:kept]]
                else:
                    keep += digit_at[: max(kept, k + 1)]
                    if kept > k + 1:  # the '.' slot after digit k + 1
                        keep.append(digit_at[k] + 1)
                masks[negative, k + 4, kept - 1, keep] = 0xFF
    return (
        heads.view(np.uint64).ravel(),
        dotted.view(np.uint64).ravel(),
        digits.view(np.uint32).ravel(),
        trailing,
        masks.reshape(-1, _TEXT_WIDTH).view(np.uint64),
    )


def _digits(magnitude):
    """The 17 significant digits of each value in [1e-4, 1e9), rounded
    half to even, as ``(d, k)``: int64 whole numbers in [1e16, 1e17) and
    the decimal exponents.

    ``k`` comes from ``log10``, checked exactly: the two-product
    ``magnitude 10^(16 - k) = hi + lo`` must lie in [1e16, 1e17). ``d`` never
    carries to 10^17: a value would need to lie within 5e-18 (relative)
    below the next power of ten, and in this range the powers 1..1e9 are
    exact and the doubles next below 1e-3, 1e-2 and 1e-1 are 1.3e-16 or
    more below them.
    """
    k = np.clip(np.floor(np.log10(magnitude)), -4, 8).astype(np.intp)
    hi, lo = _two_product(magnitude, _POW10[16 - k])
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if near.size:  # at a bound, or log10 off by one next to a power of ten
        top, rest = hi[near], lo[near]
        above = (top > 1e17) | ((top == 1e17) & (rest >= 0.0))
        k[near] += above.astype(np.intp) - ((top < 1e16) | ((top == 1e16) & (rest < 0.0)))
        hi[near], lo[near] = _two_product(magnitude[near], _POW10[16 - k[near]])
    # hi >= 1e16 > 2^53 is an even whole number, so rounding lo half to
    # even rounds hi + lo half to even
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), k


def _format_g17(values) -> np.ndarray:
    """``'%.17g' % x`` of each of at most ``_CHUNK_VALUES`` floats, as the
    rows of a (values, 32) uint8 array with NULs among the text bytes.

    A value with 1e-4 <= |x| < 1e9 prints in fixed notation: its field is
    filled from word tables by its :func:`_digits`, four digits a word,
    then ANDed with the mask row of (sign, exponent, digits before the
    trailing zeros). Every other value (zeros, non-finite, the exponent
    forms, 1e9 <= |x| < 1e17) is formatted by ``%`` itself.
    """
    heads, dotted, plain, trailing, masks = _text_tables()
    x = np.asarray(values, dtype=float).ravel()
    magnitude = np.abs(x)
    other = np.flatnonzero(~((magnitude >= _FAST_LOW) & (magnitude < _FAST_HIGH)))
    magnitude[other] = 1.0  # formatted by % below
    d, k = _digits(magnitude)
    upper = d // 10**8
    lower = d - upper * 10**8
    lead = upper // 10**8
    upper -= lead * 10**8
    first, third = upper // 10**4, lower // 10**4
    quads = (first, upper - first * 10**4, third, lower - third * 10**4)
    words = np.empty((x.size, _TEXT_WIDTH // 8), np.uint64)
    words[:, 0] = heads.take(lead)
    words[:, 1] = dotted.take(quads[0])
    words[:, 2] = dotted.take(quads[1])
    halves = words.view(np.uint32)
    halves[:, 6] = plain.take(quads[2])
    halves[:, 7] = plain.take(quads[3])
    dropped = np.zeros(x.size, np.intp)
    for group in quads:
        dropped = trailing.take(group) + (group == 0) * dropped
    words &= masks.take((np.signbit(x) * 13 + k + 4) * 17 + 16 - dropped, axis=0)
    text = words.view(np.uint8)
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
    most ``_CHUNK_VALUES`` values. Each column chunk has one line template
    per frequency (placeholder, commas, freq text and newline), built
    once; a chunk's (rows, columns, line) byte buffer is a copy of it with
    the magnitude texts written in. NULs are dropped, then each row's label
    replaces the placeholder. The file is UTF-8.
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
    line = 4 + 2 * _TEXT_WIDTH  # placeholder , freq , magnitude \n
    templates = []
    for c in range(0, freqs.size, width):
        texts = _format_g17(freqs[c : c + width])
        template = np.zeros((len(texts), line), np.uint8)
        template[:, 0] = _LABEL[0]
        template[:, 1] = template[:, 2 + _TEXT_WIDTH] = ord(",")
        template[:, 2 : 2 + _TEXT_WIDTH] = texts
        template[:, -1] = ord("\n")
        templates.append(template)
    with open(path, "wb") as fh:
        fh.write(b"component,deviation,freq,mag_db\n")
        for r in range(0, len(magnitudes), height):
            for c, template in zip(range(0, freqs.size, width), templates):
                block = magnitudes[r : r + height, c : c + width]
                lines = np.empty((len(block), *template.shape), np.uint8)
                lines[...] = template
                lines[..., 3 + _TEXT_WIDTH : -1] = _format_g17(block).reshape(
                    *block.shape, _TEXT_WIDTH
                )
                fh.write(
                    b"".join(
                        row.tobytes().translate(None, b"\0").replace(_LABEL, label)
                        for row, label in zip(lines, labels[r : r + height])
                    )
                )
