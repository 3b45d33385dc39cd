import logging

import numpy as np
import pytest

from trajdiag import evolve, trajectory
from trajdiag.errors import ConfigError, SimulationError
from trajdiag.evolve import (
    Chromosome,
    GaConfig,
    _Scorer,
    fitness,
    fitness_from_intersections,
    roulette_select,
    run_ga,
    step_generation,
    write_ga_log_csv,
)
from trajdiag.faultlib import FaultConfig, FaultEnsemble
from trajdiag.netlist import parse_netlist
from trajdiag.trajectory import TestVector, build_trajectories, count_intersections

from oracle_utils import intersection_counts

SMALL = dict(population_size=12, generations=3)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_fitness_formula_exact():
    for intersections in range(101):
        assert fitness_from_intersections(intersections) == 1.0 / (intersections + 1)
    assert fitness_from_intersections(0) == 1.0
    assert fitness_from_intersections(1) == 0.5
    assert fitness_from_intersections(9) == 0.1


def test_fitness_consistent_with_count(biquad, biquad_faults):
    for freqs in [(0.4, 1.7), (1.0, 1.0), (0.05, 80.0)]:
        tv = TestVector(freqs)
        value = fitness(tv, biquad, biquad_faults, 1e-6)
        count, _ = count_intersections(
            build_trajectories(biquad, biquad_faults, tv), 1e-6
        )
        assert value == 1.0 / (count + 1)


def test_fitness_swap_symmetry(biquad, biquad_faults):
    rng = np.random.default_rng(42)
    for _ in range(30):
        f1, f2 = (10.0 ** rng.uniform(-2.0, 2.0, 2)).tolist()
        forward = fitness(TestVector((f1, f2)), biquad, biquad_faults, 1e-6)
        backward = fitness(TestVector((f2, f1)), biquad, biquad_faults, 1e-6)
        assert forward == backward  # exact, not approximate


def test_fitness_zero_on_solver_failure(caplog):
    floating = parse_netlist("V1 1 0 1\nR1 1 0 1\nR2 2 3 1\n.input V1\n.output 2")
    config = FaultConfig(("R1",), 0.9, 1.1, 0.1)
    with caplog.at_level("WARNING"):
        value = fitness(TestVector((1.0, 2.0)), floating, config, 1e-6)
    assert value == 0.0
    assert any("fitness=0" in message for message in caplog.messages)


def test_roulette_zero_mass_excluded():
    rng = _rng(1)
    assert all(roulette_select([0, 1], [1.0, 0.0], rng) == 0 for _ in range(500))


def test_roulette_uniform_when_equal():
    rng = _rng(2)
    draws = np.array([roulette_select([0, 1], [1.0, 1.0], rng) for _ in range(10_000)])
    assert abs(np.mean(draws) - 0.5) < 0.02


def test_roulette_proportional():
    rng = _rng(3)
    draws = np.array([roulette_select([0, 1], [3.0, 1.0], rng) for _ in range(10_000)])
    assert abs((1.0 - np.mean(draws)) - 0.75) < 0.02


def test_roulette_all_zero_uniform_fallback():
    rng = _rng(4)
    draws = {roulette_select([0, 1, 2], [0.0, 0.0, 0.0], rng) for _ in range(200)}
    assert draws == {0, 1, 2}


def test_roulette_matches_cumulative_search():
    # the draw is the first index whose running fitness sum exceeds
    # rng.random() * total, exactly as a per-draw cumsum/searchsorted
    weights = _rng(13).uniform(0.0, 1.0, 50)
    weights[[3, 17, 40]] = 0.0
    cumulative = np.cumsum(weights)
    got_rng, want_rng = _rng(14), _rng(14)
    for _ in range(2000):
        got = roulette_select(range(50), weights, got_rng)
        draw = want_rng.random() * float(weights.sum())
        assert got == min(int(np.searchsorted(cumulative, draw, side="right")), 49)


def test_roulette_validation():
    rng = _rng(5)
    with pytest.raises(ValueError):
        roulette_select([0, 1], [1.0, -0.5], rng)
    with pytest.raises(ValueError):
        roulette_select([0, 1], [1.0], rng)


def test_chromosome_bounds_and_decode():
    chromosome = Chromosome((0.0, 1.0), (-2.0, 2.0))
    assert chromosome.decode().frequencies == (1.0, 10.0)
    with pytest.raises(ValueError):
        Chromosome((3.0,), (-2.0, 2.0))


def test_step_generation_composition():
    config = GaConfig(population_size=128, mutation_rate=0.0, f_min=0.01, f_max=100.0)
    bounds = config.bounds
    rng = _rng(6)
    population = [
        Chromosome((float(g1), float(g2)), bounds)
        for g1, g2 in _rng(7).uniform(bounds[0], bounds[1], (128, 2))
    ]
    fitnesses = _rng(8).uniform(0.1, 1.0, 128).tolist()
    offspring = step_generation(population, fitnesses, config, rng)
    assert len(offspring) == 128
    members = set(population)
    # reproduction quota: round(0.5 * 128) = 64 verbatim copies first
    assert all(individual in members for individual in offspring[:64])
    # crossover children: every gene comes from some parent's matching slot
    first_genes = {individual.genes[0] for individual in population}
    second_genes = {individual.genes[1] for individual in population}
    for child in offspring[64:]:
        assert child.genes[0] in first_genes
        assert child.genes[1] in second_genes


def test_step_generation_mutation_redraws_one_gene():
    config = GaConfig(population_size=4, mutation_rate=1.0, f_min=0.01, f_max=100.0)
    bounds = config.bounds
    population = [Chromosome((0.0, 0.5), bounds) for _ in range(4)]
    offspring = step_generation(population, [1.0] * 4, config, _rng(9))
    lo, hi = bounds
    for individual in offspring:
        changed = sum(
            1 for got, want in zip(individual.genes, (0.0, 0.5)) if got != want
        )
        assert changed == 1
        assert all(lo <= gene <= hi for gene in individual.genes)


def test_step_generation_deterministic():
    config = GaConfig(population_size=16, f_min=0.01, f_max=100.0)
    population = [
        Chromosome((float(g1), float(g2)), config.bounds)
        for g1, g2 in _rng(10).uniform(-1.0, 1.0, (16, 2))
    ]
    fitnesses = [1.0] * 16
    first = step_generation(population, fitnesses, config, _rng(11))
    second = step_generation(population, fitnesses, config, _rng(11))
    assert first == second


def test_step_generation_size_check():
    config = GaConfig(population_size=16)
    with pytest.raises(ValueError, match="population size"):
        step_generation([Chromosome((0.0,), (-2.0, 2.0))], [1.0], config, _rng(0))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(population_size=1),
        dict(generations=-1),
        dict(reproduction_rate=1.5),
        dict(mutation_rate=-0.1),
        dict(n_frequencies=0),
        dict(f_min=0.0),
        dict(f_min=2.0, f_max=1.0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(seed=1.5),
        dict(seed=1.0),
        dict(seed="1"),
        dict(seed=True),
    ],
)
def test_ga_config_validation(kwargs):
    with pytest.raises(ConfigError):
        GaConfig(**kwargs)


def test_run_ga_zero_generations(biquad, biquad_faults):
    config = GaConfig(population_size=12, generations=0, seed=21)
    best, log = run_ga(biquad, biquad_faults, config)
    assert len(log.records) == 1
    assert log.records[0].generation == 0
    # best of the random initial population, recomputed independently
    seeds = np.random.SeedSequence(21).spawn(1)
    genes = np.random.Generator(np.random.PCG64(seeds[0])).uniform(
        config.bounds[0], config.bounds[1], (12, 2)
    )
    fits = [
        fitness(TestVector(tuple(10.0**row)), biquad, biquad_faults, 1e-6)
        for row in genes
    ]
    assert log.best_fitness == max(fits)
    assert best.frequencies == tuple(10.0 ** genes[int(np.argmax(fits))])


def test_run_ga_monotone_and_reproducible(biquad, biquad_faults):
    config = GaConfig(seed=33, **SMALL)
    best_a, log_a = run_ga(biquad, biquad_faults, config)
    best_b, log_b = run_ga(biquad, biquad_faults, config)
    assert best_a == best_b
    assert log_a == log_b
    assert len(log_a.records) == config.generations + 1
    fits = [record.best_fitness for record in log_a.records]
    assert fits == sorted(fits)
    assert log_a.best_fitness == fits[-1]
    recount, _ = count_intersections(build_trajectories(biquad, biquad_faults, best_a), 1e-6)
    assert log_a.best_intersections == recount
    assert log_a.best_fitness == 1.0 / (recount + 1)


def test_run_ga_without_a_solvable_vector(caplog):
    floating = parse_netlist("V1 1 0 1\nR1 1 0 1\nR2 2 3 1\n.input V1\n.output 2")
    config = FaultConfig(("R1",), 0.9, 1.1, 0.1)
    with caplog.at_level("WARNING"):
        _, log = run_ga(floating, config, GaConfig(population_size=4, generations=1))
    assert log.best_fitness == 0.0
    assert log.best_intersections is None


def test_run_ga_respects_bounds(biquad, biquad_faults):
    config = GaConfig(seed=55, f_min=0.5, f_max=2.0, **SMALL)
    best, log = run_ga(biquad, biquad_faults, config)
    for record in log.records:
        for frequency in record.best_frequencies:
            assert 0.5 * (1 - 1e-12) <= frequency <= 2.0 * (1 + 1e-12)


def test_run_ga_three_frequencies(biquad, biquad_faults):
    config = GaConfig(population_size=8, generations=1, n_frequencies=3, seed=77)
    best, log = run_ga(biquad, biquad_faults, config)
    assert len(best.frequencies) == 3
    assert len(log.records[0].best_frequencies) == 3
    assert log.best_fitness > 0.0


def test_ga_log_csv(tmp_path, biquad, biquad_faults):
    config = GaConfig(seed=66, **SMALL)
    _, log = run_ga(biquad, biquad_faults, config)
    path = tmp_path / "ga_log.csv"
    write_ga_log_csv(path, log)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best_fitness,mean_fitness,best_f1,best_f2"
    assert len(lines) == 1 + len(log.records)
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[1]) == log.records[0].best_fitness


# ---------------------------------------------------------------- batched scoring


def _score(vectors, circuit, config):
    return _Scorer(circuit, config, 1e-6, 1e-6)([tv.frequencies for tv in vectors])


def test_batched_scores_equal_single_vector_fitness(biquad, biquad_faults):
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        vectors = [
            TestVector(tuple((10.0 ** rng.uniform(-2.0, 2.0, n)).tolist()))
            for _ in range(11)
        ]
        batched = _score(vectors, biquad, biquad_faults)
        single = [fitness(tv, biquad, biquad_faults, 1e-6) for tv in vectors]
        assert [fitness_from_intersections(count) for count in batched] == single


def _failing_at(bad, monkeypatch, calls=None):
    """Make every ensemble solve that includes frequency ``bad`` raise."""
    original = FaultEnsemble.magnitudes

    def failing(self, omegas):
        omegas = np.asarray(omegas)
        if calls is not None:
            calls.append(omegas.tolist())
        if bad in omegas:
            raise SimulationError("injected failure")
        return original(self, omegas)

    monkeypatch.setattr(FaultEnsemble, "magnitudes", failing)


def test_batch_failure_scores_only_the_failing_vector(
    biquad, biquad_faults, monkeypatch, caplog
):
    # the failing frequency sits in two vectors, at different positions
    bad = 0.777
    vectors = [TestVector((0.3 + 0.2 * k, 1.7)) for k in range(7)]
    vectors[2] = TestVector((bad, 1.7))
    vectors[5] = TestVector((1.3, bad))
    expected = [fitness(tv, biquad, biquad_faults, 1e-6) for tv in vectors]
    _failing_at(bad, monkeypatch)
    with caplog.at_level("WARNING"):
        counts = _score(vectors, biquad, biquad_faults)
    assert [counts[2], counts[5]] == [None, None]
    others = [k for k in range(7) if k not in (2, 5)]
    assert [fitness_from_intersections(counts[k]) for k in others] == [
        expected[k] for k in others
    ]
    warnings = [m for m in caplog.messages if "fitness=0" in m]
    assert len(warnings) == 2 and all(str(bad) in m for m in warnings)


def test_batch_failure_bisects_to_the_failing_vector(
    biquad, biquad_faults, monkeypatch, caplog
):
    rng = np.random.default_rng(128)
    vectors = [
        TestVector(tuple((10.0 ** rng.uniform(-2.0, 2.0, 2)).tolist())) for _ in range(128)
    ]
    bad = vectors[77].frequencies[1]
    expected = intersection_counts(biquad, biquad_faults, vectors).tolist()
    calls = []
    _failing_at(bad, monkeypatch, calls)
    # all 128 vectors in one block, so F = 256 frequencies meet one failure
    segments = len(biquad_faults.targets) * len(biquad_faults.deviations())
    monkeypatch.setattr(trajectory, "_BOX_ENTRIES", 128 * segments**2)
    with caplog.at_level("WARNING"):
        counts = _score(vectors, biquad, biquad_faults)
    assert counts[77] is None
    assert counts[:77] + counts[78:] == expected[:77] + expected[78:]
    assert len([m for m in caplog.messages if "fitness=0" in m]) == 1
    # one call on all 256, then halves down to the failing frequency: at
    # most 2 log2(F) + 1 calls, and every other frequency solved once
    assert len(calls[0]) == 256 and len(calls) <= 2 * 8 + 1
    solved = [f for call in calls if bad not in call for f in call]
    assert sorted(solved) == sorted(f for tv in vectors for f in tv.frequencies if f != bad)


def test_run_ga_scores_each_distinct_vector_once(
    biquad, biquad_faults, monkeypatch, caplog
):
    config = GaConfig(seed=88, **SMALL)
    _, expected = run_ga(biquad, biquad_faults, config)
    scored, solved = [], []
    original_count = evolve._count_in_blocks
    original_solve = FaultEnsemble.magnitudes

    def counting(magnitudes, omegas, *args):
        scored.append([tuple(row) for row in omegas.tolist()])
        return original_count(magnitudes, omegas, *args)

    def solving(self, omegas):
        solved.extend(np.asarray(omegas).tolist())
        return original_solve(self, omegas)

    monkeypatch.setattr(evolve, "_count_in_blocks", counting)
    monkeypatch.setattr(FaultEnsemble, "magnitudes", solving)
    with caplog.at_level(logging.DEBUG, logger="trajdiag.evolve"):
        _, log = run_ga(biquad, biquad_faults, config)
    assert log == expected
    vectors = [row for call in scored for row in call]
    assert len(vectors) == len(set(vectors))
    # one scoring call per generation that has unseen vectors
    unique = [
        int(m.split(", ")[1].split()[0]) for m in caplog.messages if m.startswith("generation ")
    ]
    assert [len(call) for call in scored] == [k for k in unique if k]
    # a frequency is solved once, though crossover reuses it in later vectors
    assert len(solved) == len(set(solved)) < sum(len(row) for row in vectors)
    assert set(solved) == {f for row in vectors for f in row}


@pytest.mark.parametrize("columns", [0, 3])
def test_run_ga_store_cap(biquad, biquad_faults, monkeypatch, columns):
    config = GaConfig(seed=88, **SMALL)
    _, expected = run_ga(biquad, biquad_faults, config)
    cap = columns * (1 + len(biquad_faults.faults))
    held = []
    original = _Scorer._magnitudes

    def watched(self, omegas):
        result = original(self, omegas)
        held.append(len(self._columns) * self._rows)
        assert held[-1] <= cap
        return result

    monkeypatch.setattr(evolve, "_STORE_VALUES", cap)
    monkeypatch.setattr(_Scorer, "_magnitudes", watched)
    _, log = run_ga(biquad, biquad_faults, config)
    assert log == expected
    assert held and max(held) == cap


def test_run_ga_debug_counters(biquad, biquad_faults, caplog):
    config = GaConfig(seed=99, **SMALL)
    with caplog.at_level(logging.DEBUG, logger="trajdiag.evolve"):
        run_ga(biquad, biquad_faults, config)
    lines = [m for m in caplog.messages if m.startswith("generation ")]
    assert len(lines) == config.generations + 1
    assert lines[0].startswith("generation 0: 12 evaluations, ")
    for line in lines:
        fields = line.split(": ")[1].split(", ")
        evaluations, unique, hits, zero = (int(f.split()[0]) for f in fields)
        assert evaluations == 12 and unique + hits == evaluations and zero == 0
