"""Complex AC small-signal analysis via modified nodal analysis.

The MNA matrix of every supported circuit splits as ``A(w) = G + j*w*C``
with real ``G`` and ``C``: resistor stamps, source/vcvs branch rows and
their incidence live in ``G``; capacitor stamps and the inductor branch
reactance live in ``C``. Frequencies are angular (rad/s) throughout this
module; the CLI converts from Hz when so configured. Magnitudes are
reported in dB.

Every magnitude in the package comes from one block loop,
:meth:`MnaSystem._solve`, and :func:`solve_ac` reads the complex output
of that loop's golden step at its one frequency. A fault deviates one
passive, which changes one two-terminal stamp, so a faulty matrix is
``A_0(w) + delta(w) u u^T``; one LU of the golden ``A_0(w)`` with
right-hand sides ``[b | U]`` (the source vector and the stamp column of
every passive) then gives every faulty output by the Sherman-Morrison
formula (Sherman & Morrison 1950). An ``MnaSystem`` is the golden system
only, and :meth:`MnaSystem.fault_rows` turns faults into the rows a
solve adds to it. Frequencies are solved in blocks of at most
``_BLOCK_ENTRIES`` complex entries, and each block's rows go straight
into the one (rows, frequencies) dB result; the working set is that
result plus one block. Each frequency is its own LU, so results do not
depend on blocking. A block is two steps: the golden step (the LU and
its products, which no fault enters) and the row step (the
Sherman-Morrison rows, the dB values and the failure record).
``faultlib.evaluate_at`` keeps the golden step of a repeated one-block
frequency set and runs only the row step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SimulationError
from .netlist import (
    GROUND,
    PASSIVE_KINDS,
    Circuit,
    ElementKind,
    check_circuit,
    deviation_target,
)

_BRANCH_KINDS = (ElementKind.VSOURCE, ElementKind.VCVS, ElementKind.INDUCTOR)

# Complex entries per solve block: per frequency, A (size x size), the
# solutions (size x (1 + passives)) and one value per result row. The GA's
# biquad solve (64 frequencies at 162 entries) and diagnose's 2 frequencies
# fit in one block; the 145-row ladder (867 per frequency) takes 18 a block.
# Per FaultEnsemble.magnitudes call, fastest of interleaved runs and
# tracemalloc peak (2-core Xeon, Python 3.11, numpy 2.4; the 60000-point
# ladder's result alone is 66.4 MiB):
#           ladder-201        biquad-64        biquad-256       ladder-60000
#   1<<16   4.96 ms 2345 KiB  0.25 ms 481 KiB  1.30 ms 1817 KiB  1.60 s 68.4 MiB
#   1<<15   4.56 ms 1274 KiB  0.26 ms 481 KiB  1.37 ms 1485 KiB  1.51 s 67.4 MiB
#   1<<14   4.49 ms  738 KiB  0.25 ms 481 KiB  0.99 ms  841 KiB  1.77 s 66.9 MiB
#   1<<13   5.10 ms  485 KiB  0.31 ms 383 KiB  1.12 ms  476 KiB  2.13 s 66.6 MiB
#   1<<12   6.53 ms  344 KiB  0.35 ms 212 KiB  1.32 ms  298 KiB  2.72 s 66.5 MiB
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class ResponseCurve:
    """Magnitude response sampled on a strictly increasing frequency grid."""

    frequencies: tuple[float, ...]
    magnitudes_db: tuple[float, ...]

    def __post_init__(self):
        if len(self.frequencies) != len(self.magnitudes_db):
            raise ValueError("frequency and magnitude lists differ in length")
        if not self.frequencies:
            raise ValueError("empty response curve")
        freqs = np.asarray(self.frequencies)
        if freqs[0] <= 0.0 or np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequencies must be positive and strictly increasing")
        if not np.all(np.isfinite(self.magnitudes_db)):
            raise ValueError("non-finite magnitude in response curve")


class MnaSystem:
    """Stamped golden MNA matrices of a circuit, and its rank-one fault rows.

    Unknowns are the non-ground node voltages (in first-appearance order)
    followed by one branch current per voltage source, vcvs and inductor.
    ``g`` and ``c`` are the golden (size, size) matrices. ``rhs`` is ``[b |
    U]``: the unit source vector, then the stamp column ``u`` of every
    passive element in netlist order (``e_i - e_j`` for an R or C between
    nodes i and j, ``e_row`` for an inductor's branch row). Every solve of
    a circuit uses these same right-hand sides, so a fault's row does not
    depend on which other faults share the solve. Row 0 of every result is
    the golden circuit, named ``golden circuit`` in errors; the rows of
    :meth:`fault_rows` follow, each named by its fault's label.
    :func:`_golden_system` caches one system per circuit.
    """

    __slots__ = ("g", "c", "rhs", "out_index", "size", "_circuit", "_column")

    def __init__(self, circuit: Circuit):
        node_index: dict[str, int] = {}
        for element in circuit.elements:
            for node in element.nodes:
                if node != GROUND and node not in node_index:
                    node_index[node] = len(node_index)
        check_circuit(circuit)
        branches = [e for e in circuit.elements if e.kind in _BRANCH_KINDS]
        passives = [e for e in circuit.elements if e.kind in PASSIVE_KINDS]

        n_nodes = len(node_index)
        size = n_nodes + len(branches)
        g = np.zeros((size, size))
        c = np.zeros((size, size))
        # row ``size`` of the right-hand sides stands for ground and is dropped
        rhs = np.zeros((size + 1, 1 + len(passives)), dtype=complex)
        column = {e.id: 1 + k for k, e in enumerate(passives)}

        def idx(node: str) -> int:
            return size if node == GROUND else node_index[node]

        def stamp(mat, i, j, val):
            if i < size and j < size:
                mat[i, j] += val

        branch_row = {e.id: n_nodes + k for k, e in enumerate(branches)}

        for element in circuit.elements:
            kind = element.kind
            if kind is ElementKind.RESISTOR or kind is ElementKind.CAPACITOR:
                n1, n2 = (idx(n) for n in element.nodes)
                mat, val = (
                    (g, 1.0 / element.value)
                    if kind is ElementKind.RESISTOR
                    else (c, element.value)
                )
                stamp(mat, n1, n1, val)
                stamp(mat, n2, n2, val)
                stamp(mat, n1, n2, -val)
                stamp(mat, n2, n1, -val)
                rhs[n1, column[element.id]] += 1.0
                rhs[n2, column[element.id]] -= 1.0
            elif kind is ElementKind.VSOURCE or kind is ElementKind.INDUCTOR:
                n1, n2 = (idx(n) for n in element.nodes)
                row = branch_row[element.id]
                stamp(g, n1, row, 1.0)
                stamp(g, n2, row, -1.0)
                stamp(g, row, n1, 1.0)
                stamp(g, row, n2, -1.0)
                if kind is ElementKind.VSOURCE:
                    rhs[row, 0] = 1.0
                else:
                    c[row, row] = -element.value
                    rhs[row, column[element.id]] = 1.0
            else:  # vcvs: V(p) - V(q) = gain * (V(cp) - V(cq))
                p, q, cp, cq = (idx(n) for n in element.nodes)
                row = branch_row[element.id]
                stamp(g, p, row, 1.0)
                stamp(g, q, row, -1.0)
                stamp(g, row, p, 1.0)
                stamp(g, row, q, -1.0)
                stamp(g, row, cp, -element.value)
                stamp(g, row, cq, element.value)

        self.g, self.c, self.rhs, self.size = g, c, rhs[:size], size
        # golden systems are cached and shared between callers
        for array in (g, c, self.rhs):
            array.flags.writeable = False
        self.out_index = node_index[circuit.output_node]
        self._circuit = circuit
        self._column = column

    def fault_rows(self, faults) -> tuple:
        """``(faults, (columns, dg, j*dc))``: the rows :meth:`_solve` adds
        to the golden one, one per fault, stamping nothing new.

        ``faults`` are ``faultlib.FaultSpec``-like (``component``,
        ``deviation``, ``label``); a bad target or deviation raises the
        ``ValueError`` of :func:`netlist.deviation_target`. A fault scaling
        element k by (1 + d) adds ``delta(w) u_k u_k^T`` to the matrix, with
        ``delta = dg + j*w*dc``: ``dg = 1/(R(1+d)) - 1/R`` for a resistor,
        ``dc = C*d`` for a capacitor and ``dc = -L*d`` for an inductor (its
        branch row holds ``-j*w*L``). ``columns`` are the faults' stamp
        columns as an int array; ``dg`` and ``j*dc`` are float and complex
        arrays.
        """
        faults = tuple(faults)
        columns, dg, dc = [], [], []
        for fault in faults:
            element = deviation_target(self._circuit, fault)
            value, d = element.value, fault.deviation
            columns.append(self._column[element.id])
            if element.kind is ElementKind.RESISTOR:
                dg.append(1.0 / (value * (1.0 + d)) - 1.0 / value)
                dc.append(0.0)
            else:
                dg.append(0.0)
                dc.append(value * d if element.kind is ElementKind.CAPACITOR else -value * d)
        return faults, (np.array(columns, dtype=int), np.array(dg), 1j * np.array(dc))

    def magnitudes(self, omegas) -> np.ndarray:
        """dB magnitudes 20*log10(|gain|) of the golden circuit, shape (1,
        frequencies): :meth:`_solve` with no fault row."""
        return self._solve(_frequencies(omegas), self.fault_rows(()))

    def _block(self, n_rows: int) -> int:
        """Frequencies per solve block: ``_BLOCK_ENTRIES`` complex entries of
        ``A``, the solutions ``[x0 | Z]`` and one value for each of
        ``n_rows`` rows."""
        per_frequency = self.size * (self.size + self.rhs.shape[1]) + n_rows
        return max(1, _BLOCK_ENTRIES // per_frequency)

    def _matrices(self, w) -> np.ndarray:
        """``G + j*w*C`` at each of ``w``, built in place with that
        expression's bits: its imaginary part is ``0 + w*C``, which turns an
        underflowed ``-0.0`` into ``+0.0``. Callers silence overflow:
        :func:`_raise_failure` names an entry out of range."""
        a = np.empty((len(w), self.size, self.size), dtype=complex)
        a.real = self.g
        np.multiply(w[:, None, None], self.c, out=a.imag)
        a.imag += 0.0
        return a

    def _solve(self, omegas, rows, golden=None) -> np.ndarray:
        """The dB magnitudes of the golden row and the :meth:`fault_rows`
        ``rows`` at each of the checked ``omegas``, block by block, into one
        (rows, frequencies) result. Each block is one :meth:`_golden_step`
        and one :meth:`_row_step`; ``golden``, when given, is the golden
        step of all of ``omegas``, which then fit in one block.

        With the golden solution ``x0`` and ``z = A_0^-1 u`` of a fault's
        stamp column, the Sherman-Morrison formula gives its output as
        ``x0[out] - delta (u.x0) z[out] / (1 + delta u.z)``. A failure is
        the least ``(kind, row, position)`` over the blocks: a value that is
        not finite (kind 0, a zero denominator included) before a zero
        magnitude (kind 1). A non-finite value, and a zero magnitude whose
        row matrix has an entry out of range there (the LU can return an
        exact 0 from an overflowed matrix), raise through
        :func:`_raise_failure`, which names the cause the row's explicit
        matrix shows at that frequency.
        """
        faults, updates = rows
        block = self._block(1 + len(faults))
        out = np.empty((1 + len(faults), len(omegas)))
        failure = None
        with np.errstate(all="ignore"):
            for start in range(0, len(omegas), block):
                w = omegas[start : start + block]
                step = self._golden_step(w) if golden is None else golden
                record = self._row_step(w, step, out[:, start : start + block], updates)
                if record is not None:
                    kind, row, col = record
                    record = (kind, row, start + col)
                    failure = min(failure or record, record)
        if failure is not None:
            kind, row, position = failure
            w = omegas[position : position + 1]
            label = faults[row - 1].label if row else "golden circuit"
            a = self._row_matrices(row, w, updates)
            if kind and np.isfinite(a).all():
                raise SimulationError(
                    f"{label} failed: zero output magnitude at omega={w[0]:g} rad/s"
                )
            _raise_failure(w, a, label)
        return out

    def _golden_step(self, w) -> tuple:
        """One LU of ``A_0`` at each of ``w`` with right-hand sides ``[b |
        U]``, reduced to ``(x_out, ux0, uz)``: the output row of ``[x0 |
        Z]``, and ``u.x0`` and ``u.z`` of every stamp column, each of shape
        (frequencies, 1 + passives). No fault enters it. A solve that
        raises names the golden circuit. Callers silence floating-point
        warnings."""
        a = self._matrices(w)
        # one (size, 1 + passives) right-hand side per frequency, stacked
        # explicitly: numpy 1.x reads a 2-D b against a 3-D a as vectors
        rhs = np.broadcast_to(self.rhs, (len(w), *self.rhs.shape))
        try:
            x = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            _raise_failure(w, a, "golden circuit")
        del a  # the block's peak is its row arithmetic, without A
        # u.x0 and u.z, exact: u has at most two entries +-1
        return x[:, self.out_index], x[:, :, 0] @ self.rhs, np.einsum("nk,fnk->fk", self.rhs, x)

    def _row_step(self, w, golden, out, updates):
        """Every row at ``w`` from the :meth:`_golden_step` arrays
        ``golden`` and the :meth:`fault_rows` ``updates``, as dB magnitudes
        written to ``out`` (rows, len(w)). Returns the block's failure
        ``(kind, row, column)``, or None."""
        column, dg, jdc = updates
        x_out, ux0, uz = golden
        d = dg + w[:, None] * jdc
        faults = x_out[:, :1] - d * ux0.take(column, axis=1) * x_out.take(column, axis=1) / (
            1.0 + d * uz.take(column, axis=1)
        )
        h = np.concatenate((x_out[:, :1], faults), axis=1).T
        values = out[...] = 20.0 * np.log10(np.abs(h))
        # |h| is inf or nan where h is not finite, and log10 is -inf at 0 only
        if np.isfinite(values).all():
            return None
        for kind, found in enumerate((np.isnan(values) | (values == np.inf), values == -np.inf)):
            if found.any():
                return (kind, *divmod(int(np.argmax(found)), len(w)))

    def _row_matrices(self, row, w, updates) -> np.ndarray:
        """One row's explicit MNA matrices at each of ``w``."""
        with np.errstate(all="ignore"):
            a = self._matrices(w)
            if row:
                column, dg, jdc = updates
                u = self.rhs[:, column[row - 1]]
                a = a + (dg[row - 1] + w * jdc[row - 1])[:, None, None] * np.outer(u, u)
        return a


def _frequencies(omegas) -> np.ndarray:
    """``omegas`` as a float array, checked: 1-D, non-empty, each positive
    and finite."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or len(omegas) == 0:
        raise ValueError("frequencies must be a non-empty 1-D sequence")
    if not ((omegas > 0.0) & (omegas < np.inf)).all():
        raise ValueError("frequencies must be positive and finite")
    return omegas


def _raise_failure(omegas, matrices, label):
    """Name the first of ``omegas`` at which one row's MNA matrix cannot be
    solved, and why.

    ``matrices`` holds that row's matrix at each of ``omegas``: the one
    frequency its solve failed at, or a whole block whose stacked solve
    raised. Non-finite entries are caught before ``np.linalg.cond``: LAPACK
    would reject them with messages of its own on stdout. Where no matrix
    shows a cause, the message names the first frequency handed.
    """
    for omega, matrix in zip(omegas, matrices):
        if not np.all(np.isfinite(matrix)):
            raise SimulationError(
                f"{label} failed: an MNA matrix entry is out of floating-point "
                f"range at omega={omega:g} rad/s; check element values"
            )
        cond = np.linalg.cond(matrix)
        if not np.isfinite(cond) or cond > 1e15:
            raise SimulationError(
                f"{label} failed: singular MNA system at omega={omega:g} rad/s "
                f"(condition number {cond:.3e}); check circuit connectivity"
            )
    raise SimulationError(f"{label} failed: MNA solve failed at omega={omegas[0]:g} rad/s")


@lru_cache(maxsize=16)
def _golden_system(circuit: Circuit) -> MnaSystem:
    """The circuit's golden system, cached: circuits are immutable and the
    system's arrays read-only, so every caller shares one."""
    return MnaSystem(circuit)


def solve_ac(circuit: Circuit, frequency: float) -> complex:
    """Complex gain V(output)/V(source) at one angular frequency: the
    golden step's output there. A gain that is not finite, or a matrix
    entry out of floating-point range (where the LU can still return a
    finite gain), raises through :func:`_raise_failure`."""
    system = _golden_system(circuit)
    w = _frequencies([frequency])
    with np.errstate(all="ignore"):
        gain = complex(system._golden_step(w)[0][0, 0])
        a = system._matrices(w)
    if not (np.isfinite(gain) and np.isfinite(a).all()):
        _raise_failure(w, a, "golden circuit")
    return gain


def sweep(circuit: Circuit, grid) -> ResponseCurve:
    """Magnitude response over a strictly increasing angular-frequency grid."""
    omegas = np.asarray(grid, dtype=float)
    mags = _golden_system(circuit).magnitudes(omegas)[0]
    return ResponseCurve(tuple(omegas.tolist()), tuple(mags.tolist()))


def log_grid(f_min: float, f_max: float, points: int) -> np.ndarray:
    """Logarithmically spaced frequency grid."""
    if f_min <= 0.0 or f_max <= f_min:
        raise ValueError("need 0 < f_min < f_max")
    if points < 1:
        raise ValueError("need at least one grid point")
    if points == 1:
        return np.asarray([f_min])
    return np.geomspace(f_min, f_max, points)

