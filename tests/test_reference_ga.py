"""run() and evolve_step against the plain reference GA of reference_ga.py.

Every configuration of a grid runs 8 generations on both: random instances
n in {1, 2, 3, 5, 9} and nug12 in the int32 tier, random n in {3, 9} in the
int64 and Python-int tiers; P in {2, 3, 7, 20}, crossover rate {0, 0.5, 1},
mutation rate {0, 0.3, 1} and elitism {0, 1}.  A Hypothesis property samples
beyond the grid.  The reference shares only selection_weights with the package.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapga import GaConfig, Instance, parse_qaplib, random_instance, run
from qapga.ga import evolve_step, init_population

from conftest import QAPLIB_DIR
from reference_ga import reference_run

GRID = [GaConfig(population_size=size, crossover_rate=cx, mutation_rate=mut,
                 elitism_count=elites, max_generations=8, rng_seed=seed)
        for seed, (size, cx, mut, elites) in enumerate(
            product((2, 3, 7, 20), (0.0, 0.5, 1.0), (0.0, 0.3, 1.0), (0, 1)))]

# (n, dtype of the exact operands); n=12 is nug12
CASES = [(n, np.int32) for n in (1, 2, 3, 5, 9, 12)] + [
    (n, tier) for tier in (np.int64, object) for n in (3, 9)]


def instance(n: int, tier) -> Instance:
    """nug12 or a random instance, with flow[0, 0] and dist[0, -1] raised to put
    it in tier (the recipe of CI's int64 step, and one past the int64 budget)."""
    if n == 12:
        inst = parse_qaplib((QAPLIB_DIR / "nug12.dat").read_text(), name="nug12")
    else:
        inst = random_instance(n, 99, rng=np.random.default_rng(n), name=f"rand{n}")
    flow, dist = inst.flow.copy(), inst.dist.copy()
    if tier is not np.int32:
        flow[0, 0], dist[0, -1] = (2**24, 99) if tier is np.int64 else (2**40, 2**30)
    inst = Instance(inst.name, n, flow, dist)
    assert inst._exact[0].dtype == tier
    return inst


def observed(inst: Instance, cfg: GaConfig) -> dict:
    """What reference_run returns, from run() and, for the final population, from
    init_population and evolve_step, whose counts must add up to run()'s."""
    result = run(inst, cfg).to_dict()
    rng = np.random.default_rng(cfg.rng_seed)
    perms, costs = init_population(inst, cfg.population_size, rng)
    full, delta = cfg.population_size, 0
    for _ in range(cfg.max_generations):
        perms, costs, step_full, step_delta = evolve_step(inst, perms, costs, cfg, rng)
        full, delta = full + step_full, delta + step_delta
    assert (full, delta) == (result["full_evaluations"], result["delta_evaluations"])
    keys = ("best_perm", "best_cost", "history", "full_evaluations", "delta_evaluations")
    return {**{key: result[key] for key in keys}, "perms": perms.tolist(), "costs": costs.tolist()}


@pytest.mark.parametrize("n, tier", CASES, ids=[f"n{n}-{np.dtype(t)}" for n, t in CASES])
def test_run_and_evolve_step_follow_the_reference(n, tier):
    inst = instance(n, tier)
    for cfg in GRID:
        assert observed(inst, cfg) == reference_run(inst, cfg), cfg


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), size=st.integers(2, 24), cx=st.floats(0, 1), mut=st.floats(0, 1),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_any_configuration_follows_the_reference(n, size, cx, mut, data, seed):
    inst = random_instance(n, 99, rng=np.random.default_rng(seed), name="random")
    cfg = GaConfig(population_size=size, crossover_rate=cx, mutation_rate=mut,
                   elitism_count=data.draw(st.integers(0, size - 1)), max_generations=5,
                   rng_seed=seed)
    assert observed(inst, cfg) == reference_run(inst, cfg)
