"""A plain reference GA, written from the determinism contract of qapga.ga.

Costs are Python-int double sums, crossover works on one pair of lists at a
time, and each generation reads its block of 11 uniforms per pair row by row.
Only the roulette weights come from the package (selection_weights): the
contract does not spell out their float arithmetic, and tests/test_ga.py
checks that function on its own.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from qapga import GaConfig, Instance
from qapga.ga import selection_weights


def cost(inst: Instance, p: list[int]) -> int:
    """sum_{i,k} flow[i][k] * dist[p[i]][p[k]] in Python ints."""
    flow, dist = inst.flow.tolist(), inst.dist.tolist()
    return sum(f * dist[p[i]][p[k]] for i, row in enumerate(flow) for k, f in enumerate(row))


def order_crossover(keeper: list[int], donor: list[int], lo: int, hi: int) -> list[int]:
    """keeper[lo:hi] in place; the other positions, left to right, get the genes
    missing from that segment in donor's order."""
    kept = set(keeper[lo:hi])
    rest = iter([g for g in donor if g not in kept])
    return [keeper[i] if lo <= i < hi else next(rest) for i in range(len(keeper))]


def generation(inst, perms, costs, cfg: GaConfig, rng, counts):
    """The next (perms, costs); counts[0] and counts[1] gain the full and delta
    evaluations spent."""
    size, n, elites = cfg.population_size, inst.n, cfg.elitism_count
    wheel = list(accumulate(selection_weights(costs).tolist()))
    blocks = rng.random(((size - elites + 1) // 2, 11)).tolist()
    survivors = sorted(range(size), key=costs.__getitem__)[:elites]  # a stable sort
    next_perms, next_costs = [perms[r] for r in survivors], [costs[r] for r in survivors]
    for u in blocks:
        parents = [perms[min(bisect_right(wheel, x * wheel[-1]), size - 1)] for x in u[:2]]
        crossed = u[2] < cfg.crossover_rate
        if crossed:
            lo, hi = sorted(int(x * (n + 1)) for x in u[3:5])
            children = [order_crossover(*parents, lo, hi), order_crossover(*parents[::-1], lo, hi)]
            counts[0] += 2
        else:
            children = [list(p) for p in parents]
        for child, (coin, u_a, u_b) in zip(children, (u[5:8], u[8:11])):
            if coin < cfg.mutation_rate and n >= 2:
                a, b = int(u_a * n), int(u_b * (n - 1))
                b += b >= a
                child[a], child[b] = child[b], child[a]
                counts[1] += not crossed  # a mutated copy costs one swap delta
        next_perms += children
        next_costs += [cost(inst, child) for child in children]
    return next_perms[:size], next_costs[:size]  # an odd last child is dropped


def reference_run(inst: Instance, cfg: GaConfig) -> dict:
    """run(inst, cfg) for max_generations, with no target and no time limit:
    the best, the history, the counts and the final population."""
    rng = np.random.default_rng(cfg.rng_seed)
    perms = [rng.permutation(inst.n).tolist() for _ in range(cfg.population_size)]
    costs = [cost(inst, p) for p in perms]
    counts = [cfg.population_size, 0]
    best = min(costs)
    best_perm, history = perms[costs.index(best)], [best]
    for _ in range(cfg.max_generations):
        perms, costs = generation(inst, perms, costs, cfg, rng, counts)
        if min(costs) < best:
            best = min(costs)
            best_perm = perms[costs.index(best)]
        history.append(best)
    return {"best_perm": best_perm, "best_cost": best, "history": history,
            "full_evaluations": counts[0], "delta_evaluations": counts[1],
            "perms": perms, "costs": costs}
