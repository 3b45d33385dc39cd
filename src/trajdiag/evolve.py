"""Genetic search for test vectors whose trajectories stay apart.

Plain generational GA: fitness-proportional (roulette) selection, a
reproduction quota of selected copies, one-point crossover for the rest,
and per-individual single-gene uniform mutation. Genes are log10
frequencies so mutation explores the band evenly. The best-so-far
individual is tracked outside the population (no elitism inside it).

Every fitness comes from one :class:`_Scorer` per run or call: a memo
of intersection counts by test vector that counts a generation's unseen
vectors in one call of the incidence counting loop,
``trajectory._count_in_blocks``, as rows of their frequencies
``10.0 ** g`` (no ``TestVector`` per individual), and solves each
frequency once while it stays in the population. A vector that holds a
frequency the solver fails at scores 0.0.

Reproducibility: the run seed feeds a SeedSequence that spawns one
child stream per generation; all stochastic draws happen on that
single stream in a fixed order, and fitness evaluation is pure and
independent of batching.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .faultlib import FaultConfig, ensemble_for
from .netlist import Circuit
from .trajectory import TestVector, _count_in_blocks, _origin_tol

logger = logging.getLogger(__name__)

# Cap on the dB values (columns x (1 + faults)) a _Scorer's store keeps,
# 2 MB: 4,599 biquad columns, where a population of 128 two-frequency
# vectors needs 256; 93 columns at 2,800 faults.
_STORE_VALUES = 1 << 18


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, least: int) -> None:
    if not (_is_integer(value) and value >= least):
        raise ConfigError(
            f"config field {name!r}: must be an integer of at least {least}, got {value!r}"
        )


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 128
    generations: int = 15
    reproduction_rate: float = 0.5
    mutation_rate: float = 0.4
    n_frequencies: int = 2
    f_min: float = 0.01
    f_max: float = 100.0
    seed: int = 1

    def __post_init__(self):
        # each message names its field, as the CLI reports it; a float
        # count fails mid-run and a bool would run as 0 or 1
        for name, least in (("population_size", 2), ("generations", 0)):
            _check_count(name, getattr(self, name), least)
        for rate_name in ("reproduction_rate", "mutation_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"config field {rate_name!r}: must lie in [0, 1], got {rate}")
        _check_count("n_frequencies", self.n_frequencies, 1)
        if not (0.0 < self.f_min < self.f_max < np.inf):
            raise ConfigError(
                f"config field 'f_min'/'f_max': need 0 < f_min < f_max < inf, "
                f"got {self.f_min}..{self.f_max}"
            )
        # numpy's SeedSequence takes any non-negative integer
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ConfigError(
                f"config field 'seed': must be an unsigned 64-bit integer, got {self.seed!r}"
            )

    @property
    def bounds(self) -> tuple[float, float]:
        """Gene bounds in log10-frequency space."""
        return (float(np.log10(self.f_min)), float(np.log10(self.f_max)))


@dataclass(frozen=True)
class Chromosome:
    """Gene vector in log10-frequency space, clamped to its bounds."""

    genes: tuple[float, ...]
    bounds: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.bounds
        if any(g < lo or g > hi for g in self.genes):
            raise ValueError("gene out of bounds")

    def decode(self) -> TestVector:
        return TestVector(tuple(10.0**g for g in self.genes))


@dataclass(frozen=True)
class GaRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_frequencies: tuple[float, ...]


@dataclass(frozen=True)
class GaLog:
    records: tuple[GaRecord, ...]
    best_vector: TestVector
    best_fitness: float
    best_intersections: int | None
    seed: int


def fitness_from_intersections(intersections: int) -> float:
    return 1.0 / (intersections + 1)


class _Scorer:
    """Memoized intersection counts of frequency rows: a GA run's scoring.

    Called with a population's rows (equal-length frequency tuples), it
    counts the distinct rows missing from :attr:`memo` in one
    ``_count_in_blocks`` call (:attr:`counted` says how many) and returns
    every row's count from the memo. The dB columns come from a store by
    frequency that keeps the current rows' frequencies only, each as its
    own copy, up to ``_STORE_VALUES`` values; past that a column serves its
    block and is dropped. A solve that raises ``SimulationError`` is split
    in halves down to the failing frequencies, which get zero columns (each
    frequency is its own LU, so no other column changes); a row that holds
    one counts ``None`` (fitness 0.0), logged once per row.
    """

    def __init__(self, circuit: Circuit, config: FaultConfig, tol, origin_tol):
        self._count_args = (config, tol, _origin_tol(tol, origin_tol))
        self._solve = ensemble_for(circuit, config).magnitudes
        self._rows = 1 + len(config.faults)
        self._columns: dict[float, np.ndarray] = {}
        self._failed: dict[float, SimulationError] = {}
        self.memo: dict[tuple[float, ...], int | None] = {}
        self.counted = 0

    def __call__(self, rows) -> list[int | None]:
        wanted = {f for row in rows for f in row}
        self._columns = {f: c for f, c in self._columns.items() if f in wanted}
        self._failed = {f: e for f, e in self._failed.items() if f in wanted}
        unseen = [row for row in dict.fromkeys(rows) if row not in self.memo]
        self.counted = len(unseen)
        if unseen:
            counts = _count_in_blocks(self._magnitudes, np.array(unseen), *self._count_args)
            self.memo.update(zip(unseen, counts.tolist()))
            for row in unseen if self._failed else ():
                errors = [self._failed[f] for f in row if f in self._failed]
                if errors:
                    logger.warning("fitness=0 for %s: %s", row, errors[0])
                    self.memo[row] = None
        return [self.memo[row] for row in rows]

    def _magnitudes(self, omegas) -> np.ndarray:
        """The (1 + faults, K) dB columns at ``omegas``, solving in one call
        only the frequencies the store lacks."""
        keys = omegas.tolist()
        columns = self._columns
        new = [f for f in dict.fromkeys(keys) if f not in columns]
        if new:
            fresh = dict(zip(new, (column.copy() for column in self._solve_each(new).T)))
            room = _STORE_VALUES // self._rows - len(columns)
            columns.update(list(fresh.items())[:room])
            columns = columns | fresh
        return np.array([columns[f] for f in keys]).T

    def _solve_each(self, omegas: list[float]) -> np.ndarray:
        try:
            return self._solve(np.array(omegas))
        except SimulationError as exc:
            if len(omegas) == 1:
                self._failed[omegas[0]] = exc
                return np.zeros((self._rows, 1))
            half = len(omegas) // 2
            return np.concatenate(
                [self._solve_each(omegas[:half]), self._solve_each(omegas[half:])], axis=1
            )


def _fitness(count: int | None) -> float:
    return 0.0 if count is None else fitness_from_intersections(count)


def fitness(
    tv: TestVector,
    circuit: Circuit,
    config: FaultConfig,
    tol: float = 1e-6,
    origin_tol: float | None = None,
) -> float:
    """1/(I+1) for the trajectory intersection count I at this test vector.

    A vector the solver cannot evaluate scores 0.0 so the search keeps
    going; the event is logged.
    """
    return _fitness(_Scorer(circuit, config, tol, origin_tol)([tv.frequencies])[0])


def _roulette(fitnesses, size: int):
    """Validated fitness-proportional sampler: ``draw(rng)`` -> index."""
    weights = np.asarray(fitnesses, dtype=float)
    if len(weights) != size:
        raise ValueError("fitness list does not match population size")
    if np.any(weights < 0.0):
        raise ValueError("fitnesses must be non-negative")
    total = float(weights.sum())
    cumulative = np.cumsum(weights).tolist()

    def draw(rng: np.random.Generator) -> int:
        if total <= 0.0:
            return int(rng.integers(size))
        return min(bisect.bisect_right(cumulative, rng.random() * total), size - 1)

    return draw


def roulette_select(population, fitnesses, rng: np.random.Generator) -> int:
    """Index drawn with probability fitness[i] / sum(fitness).

    Falls back to a uniform draw when every fitness is zero.
    """
    return _roulette(fitnesses, len(population))(rng)


def _crossover(parent_a: Chromosome, parent_b: Chromosome, rng) -> Chromosome:
    n = len(parent_a.genes)
    if n == 1:
        return parent_a
    cut = int(rng.integers(1, n))
    return Chromosome(parent_a.genes[:cut] + parent_b.genes[cut:], parent_a.bounds)


def step_generation(
    population: list[Chromosome],
    fitnesses,
    config: GaConfig,
    rng: np.random.Generator,
) -> list[Chromosome]:
    """One generational step: selected copies, crossover children, mutation."""
    size = len(population)
    if size != config.population_size:
        raise ValueError("population size does not match the configuration")
    n_copies = round(config.reproduction_rate * size)
    select = _roulette(fitnesses, size)

    offspring: list[Chromosome] = []
    for _ in range(n_copies):
        offspring.append(population[select(rng)])
    for _ in range(size - n_copies):
        parent_a = population[select(rng)]
        parent_b = population[select(rng)]
        offspring.append(_crossover(parent_a, parent_b, rng))

    lo, hi = config.bounds
    mutated: list[Chromosome] = []
    for individual in offspring:
        if rng.random() < config.mutation_rate:
            gene_index = int(rng.integers(len(individual.genes)))
            genes = list(individual.genes)
            genes[gene_index] = float(rng.uniform(lo, hi))
            mutated.append(Chromosome(tuple(genes), individual.bounds))
        else:
            mutated.append(individual)
    return mutated


def run_ga(
    circuit: Circuit,
    fault_config: FaultConfig,
    ga_config: GaConfig,
    tol: float = 1e-6,
    origin_tol: float | None = None,
) -> tuple[TestVector, GaLog]:
    """Evolve test vectors for a fixed number of generations.

    Returns the best-so-far vector and the full per-generation log.
    """
    scorer = _Scorer(circuit, fault_config, tol, origin_tol)
    seeds = np.random.SeedSequence(ga_config.seed).spawn(ga_config.generations + 1)
    bounds = ga_config.bounds
    init_rng = np.random.Generator(np.random.PCG64(seeds[0]))
    genes = init_rng.uniform(
        bounds[0], bounds[1], size=(ga_config.population_size, ga_config.n_frequencies)
    )
    population = [Chromosome(tuple(row.tolist()), bounds) for row in genes]
    best_fitness, records = -1.0, []  # every fitness is at least 0

    for generation in range(ga_config.generations + 1):
        if generation > 0:
            rng = np.random.Generator(np.random.PCG64(seeds[generation]))
            population = step_generation(population, fitnesses, ga_config, rng)
        # Python's float power, as Chromosome.decode: numpy's vectorized
        # 10.0 ** genes rounds some genes to a neighbouring float
        counts = scorer([tuple(10.0**g for g in c.genes) for c in population])
        fitnesses = [_fitness(count) for count in counts]
        logger.debug(
            "generation %d: %d evaluations, %d unique, %d memo hits, %d fitness 0",
            generation, len(population), scorer.counted,
            len(population) - scorer.counted, fitnesses.count(0.0),
        )
        gen_best = int(np.argmax(fitnesses))
        if fitnesses[gen_best] > best_fitness:
            best_fitness = fitnesses[gen_best]
            best = population[gen_best]
        records.append(
            GaRecord(generation, best_fitness, float(np.mean(fitnesses)), best.decode().frequencies)
        )

    best_vector = best.decode()
    count = scorer.memo[best_vector.frequencies]
    log = GaLog(tuple(records), best_vector, best_fitness, count, ga_config.seed)
    return best_vector, log


def write_ga_log_csv(path, log: GaLog, frequency_scale: float = 1.0) -> None:
    """``generation,best_fitness,mean_fitness,best_f1,...`` rows.

    ``frequency_scale`` divides the logged frequencies (CLI unit echo).
    """
    n = len(log.best_vector.frequencies)
    header = "generation,best_fitness,mean_fitness," + ",".join(
        f"best_f{i + 1}" for i in range(n)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for record in log.records:
            freqs = ",".join(
                f"{f / frequency_scale:.17g}" for f in record.best_frequencies
            )
            fh.write(
                f"{record.generation},{record.best_fitness:.17g},"
                f"{record.mean_fitness:.17g},{freqs}\n"
            )
