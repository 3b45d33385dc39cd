"""Genetic search for test vectors whose trajectories stay apart.

Plain generational GA: fitness-proportional (roulette) selection, a
reproduction quota of selected copies, one-point crossover for the rest,
and per-individual single-gene uniform mutation. Genes are log10
frequencies so mutation explores the band evenly. The best-so-far
individual is tracked outside the population (no elitism inside it).

A run memoizes intersection counts by genes (``None`` for a vector the
solver fails on, which scores 0.0) and takes every fitness, and the
best vector's count in the log, from that memo. A generation's unseen
individuals are scored in one call of the incidence counting loop,
``trajectory._count_in_blocks``, in blocks of bounded memory, as rows of their
frequencies ``10.0 ** g``; no ``TestVector`` is built per individual.
The blocks take their dB columns from a run-local store keyed by
frequency that holds the current population's frequencies, so a
frequency is solved once while it stays in the population. A solve that
fails is split in halves down to the failing frequencies, and each
vector that holds one scores 0.0.

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

from .errors import ConfigError
from .faultlib import FaultConfig, ensemble_for
from .netlist import Circuit
from .trajectory import TestVector, _ColumnStore, _count_in_blocks, _origin_tol

logger = logging.getLogger(__name__)

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
        if self.population_size < 2:
            raise ConfigError("population_size must be at least 2")
        if self.generations < 0:
            raise ConfigError("generations must be non-negative")
        for rate_name in ("reproduction_rate", "mutation_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{rate_name} must lie in [0, 1], got {rate}")
        if self.n_frequencies < 1:
            raise ConfigError("n_frequencies must be at least 1")
        if not (0.0 < self.f_min < self.f_max < np.inf):
            raise ConfigError(
                f"need 0 < f_min < f_max < inf, got {self.f_min}..{self.f_max}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")

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


def _counts(rows, store: _ColumnStore, config, tol, origin_tol) -> list[int | None]:
    """Intersection counts of equal-length frequency rows, from ``store``.

    A row that holds a frequency the store could not solve gets ``None``
    (fitness 0.0), and the event is logged once per row.
    """
    counts = _count_in_blocks(store, np.array(rows), config, tol, origin_tol).tolist()
    failed = store.failed
    for k, row in enumerate(rows if failed else ()):
        errors = [failed[f] for f in row if f in failed]
        if errors:
            logger.warning("fitness=0 for %s: %s", tuple(row), errors[0])
            counts[k] = None
    return counts


def _store(circuit: Circuit, config: FaultConfig) -> _ColumnStore:
    return _ColumnStore(ensemble_for(circuit, config).magnitudes, 1 + len(config.faults))


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
    store = _store(circuit, config)
    return _fitness(_counts([tv.frequencies], store, config, tol, _origin_tol(tol, origin_tol))[0])


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
    origin_tol = _origin_tol(tol, origin_tol)
    memo: dict[tuple[float, ...], int | None] = {}
    store = _store(circuit, fault_config)

    def evaluate(population, generation) -> list[float]:
        # Python's float power, as Chromosome.decode: numpy's vectorized
        # 10.0 ** genes rounds some genes to a neighbouring float
        rows = {c.genes: [10.0**g for g in c.genes] for c in population}
        store.keep({f for row in rows.values() for f in row})
        unseen = [genes for genes in rows if genes not in memo]
        if unseen:
            counts = _counts([rows[g] for g in unseen], store, fault_config, tol, origin_tol)
            memo.update(zip(unseen, counts))
        fitnesses = [_fitness(memo[c.genes]) for c in population]
        logger.debug(
            "generation %d: %d evaluations, %d unique, %d memo hits, %d fitness 0",
            generation, len(population), len(unseen),
            len(population) - len(unseen), fitnesses.count(0.0),
        )
        return fitnesses

    seeds = np.random.SeedSequence(ga_config.seed).spawn(ga_config.generations + 1)
    bounds = ga_config.bounds
    init_rng = np.random.Generator(np.random.PCG64(seeds[0]))
    genes = init_rng.uniform(
        bounds[0], bounds[1], size=(ga_config.population_size, ga_config.n_frequencies)
    )
    population = [Chromosome(tuple(row.tolist()), bounds) for row in genes]
    fitnesses = evaluate(population, 0)

    best_index = int(np.argmax(fitnesses))
    best_fitness = fitnesses[best_index]
    best = population[best_index]
    records = [
        GaRecord(0, best_fitness, float(np.mean(fitnesses)), best.decode().frequencies)
    ]

    for generation in range(1, ga_config.generations + 1):
        rng = np.random.Generator(np.random.PCG64(seeds[generation]))
        population = step_generation(population, fitnesses, ga_config, rng)
        fitnesses = evaluate(population, generation)
        gen_best = int(np.argmax(fitnesses))
        if fitnesses[gen_best] > best_fitness:
            best_fitness = fitnesses[gen_best]
            best = population[gen_best]
        records.append(
            GaRecord(
                generation,
                best_fitness,
                float(np.mean(fitnesses)),
                best.decode().frequencies,
            )
        )

    best_vector = best.decode()
    log = GaLog(tuple(records), best_vector, best_fitness, memo[best.genes], ga_config.seed)
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
