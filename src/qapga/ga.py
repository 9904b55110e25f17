"""Genetic algorithm over permutations: two-point order crossover, swap
mutation, roulette-wheel selection with a minimization transform, and a
generational loop with elitism.

Population
----------
The population is two arrays: perms (P, n) int64, one permutation per row,
and costs (P,) int64, the exact cost of each row.  A generation runs each
phase as one batched call over all pairs or children: roulette picks
(_pick) and one gather of the next population, order crossover on the rows
of the crossed pairs, position draws (_swap_positions) with O(n) swap deltas
for mutated copies, and one exact evaluation of every child whose cost is
unknown.  swap_mutation and roulette_select are one-row front ends over the
same kernels; Chromosome appears only in roulette_select and as GaResult.best.

Determinism contract
--------------------
A run owns a single numpy Generator seeded from GaConfig.rng_seed.  The
initial population consumes one permutation draw per chromosome.  Each
generation then draws one block of 11 uniforms per offspring pair, consumed
in a fixed order regardless of which coins fire:

    [0] parent-1 roulette draw      [1] parent-2 roulette draw
    [2] crossover coin              [3] cut point a   [4] cut point b
    [5] mutation coin, child 1      [6] swap pos a1   [7] swap pos b1
    [8] mutation coin, child 2      [9] swap pos a2  [10] swap pos b2

Identical (instance, config, seed) therefore replays identically, unless
time_limit_s stops the run: where that cap falls depends on machine speed.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import get_args, get_type_hints

import numpy as np

from .instance import (Instance, _as_int64, _checked, _costs, _generator, _integer,
                       _is_permutation, _Record, _swap_deltas, check_permutation, read_number)

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Chromosome(_Record):
    """A permutation with its cached cost; a _Record, so perm is a read-only copy."""

    perm: np.ndarray
    cost: int

    def __post_init__(self):
        self._own("perm", self.perm)


def _flag(default, flag: str, text: str, low, high=None):  # high None: no upper bound
    return field(default=default, metadata={"flag": flag, "help": text, "range": (low, high)})


@dataclass(frozen=True)
class GaConfig:
    """Settings of one GA run; field metadata `flag`/`help`/`range` is the CLI flag and range table."""

    population_size: int = _flag(100, "--pop", "population size", 2)
    crossover_rate: float = _flag(0.8, "--cx-rate", "crossover probability", 0, 1)
    mutation_rate: float = _flag(0.2, "--mut-rate", "per-chromosome mutation probability", 0, 1)
    max_generations: int = _flag(10000, "--generations", "maximum number of generations", 1)
    target_cost: int | None = _flag(None, "--target", "stop once the best cost reaches this value", 0)
    time_limit_s: float | None = _flag(None, "--time-limit-s", "wall-clock budget per run in seconds", 0)
    elitism_count: int = _flag(1, "--elitism", "number of elite survivors per generation", 0)
    rng_seed: int = _flag(0, "--seed", "random seed of the run", 0)

    def __post_init__(self):
        for f in fields(self):  # the optional fields are the ones defaulting to None
            value, kind = getattr(self, f.name), _CONFIG_FIELDS[f.name]
            if value is None and f.default is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Integral if kind is int else Real):
                raise ValueError(f"{f.name} must be {'an integer' if kind is int else 'a number'}, "
                                 f"got {value!r}")
            low, high = f.metadata["range"]
            if not (low <= value and (high is None or value <= high)):  # a nan fails too
                bound = f">= {low}" if high is None else f"in [{low}, {high}]"
                raise ValueError(f"{f.name} must be {'None or ' if f.default is None else ''}{bound}")
        if self.elitism_count >= self.population_size:
            raise ValueError("elitism_count must be in [0, population_size)")


def _scalar_type(hint) -> type:
    """int or float from a field annotation such as `int | None`."""
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


# GaConfig field -> value type, in field order; the one list of the fields
_CONFIG_FIELDS = {
    f.name: _scalar_type(get_type_hints(GaConfig)[f.name]) for f in fields(GaConfig)
}


def config_from_text(text: str) -> GaConfig:
    """Build a GaConfig from flat `key = value` lines.

    Blank lines and `#` comments are ignored; unknown keys are errors; the
    literal value `none` clears an optional field.  A key may appear once.
    """
    values = {}
    lines = {}  # key -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in lines:
            raise ValueError(f"line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        if value.lower() == "none":
            values[key] = None
            continue
        try:
            values[key] = read_number(_CONFIG_FIELDS[key], value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad value {value!r} for {key}"
            ) from None
    return GaConfig(**values)


@dataclass
class GaResult:
    """One run's outcome; == compares all but wall_time_s, so it checks a replay."""

    best: Chromosome
    generations_run: int
    full_evaluations: int  # whole-permutation costs, the initial population included
    delta_evaluations: int  # O(n) swap deltas of mutated verbatim copies
    wall_time_s: float = field(compare=False)
    history: list[int]

    @property
    def evaluations(self) -> int:
        """All cost evaluations, full and delta."""
        return self.full_evaluations + self.delta_evaluations

    def to_dict(self) -> dict:
        """Serializable view."""
        return {
            "best_perm": self.best.perm.tolist(),
            "best_cost": self.best.cost,
            "generations_run": self.generations_run,
            "evaluations": self.evaluations,
            "full_evaluations": self.full_evaluations,
            "delta_evaluations": self.delta_evaluations,
            "history": list(self.history),
            "wall_time_s": self.wall_time_s,
        }


def init_population(
    inst: Instance, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random permutations (size, n) and their costs (size,); size is an
    integer >= 2, not a bool."""
    size, rng = _integer("population size", size, 2), _generator(rng)
    perms = np.stack([rng.permutation(inst.n) for _ in range(size)])
    return perms, _costs(inst, perms)


def order_crossover_two_point(p1, p2, cut1, cut2) -> tuple[np.ndarray, np.ndarray]:
    """Two-point order-preserving crossover, on one pair or on stacked pairs.

    Child 1 keeps p1[cut1:cut2] in place; the other positions are filled
    left-to-right with the genes missing from that segment, in the order
    they occur in p2.  Child 2 is the mirror image.  p1 and p2 are either
    two permutations of length n with integer cuts, or two (m, n) stacks
    with one cut pair per row.  Both children of every pair are built in
    one pass over the rows of keeper = [p1; p2] and donor = [p2; p1].
    """
    p1, p2, cut1, cut2 = map(np.asarray, (p1, p2, cut1, cut2))
    if p1.shape != p2.shape:
        raise ValueError("parents have different lengths")
    n = p1.shape[-1]
    if cut1.shape != p1.shape[:-1] or cut2.shape != p1.shape[:-1]:
        raise ValueError(f"expected one cut pair per pair of parents, got {cut1.shape} cuts "
                         f"for parents of shape {p1.shape}")
    if cut1.dtype.kind not in "iu" or cut2.dtype.kind not in "iu":
        raise ValueError(f"cut points must be integers, got dtypes {cut1.dtype} and {cut2.dtype}")
    if not ((0 <= cut1) & (cut1 <= cut2) & (cut2 <= n)).all():
        raise ValueError(f"cut points out of range: ({cut1}, {cut2}) for n={n}")
    # cuts are validated 0 <= lo <= hi, so pos - lo wraps past hi - lo where pos < lo
    lo, hi = np.concatenate((cut1, cut1, cut2, cut2), axis=None).astype(np.uint64).reshape(2, -1, 1)
    keep = np.arange(n, dtype=np.uint64) - lo < hi - lo
    # the keeper rows, filled in place into the children
    child = np.concatenate((p1, p2)).reshape(-1, n).astype(np.int64, copy=False)
    donor = np.concatenate((p2, p1)).reshape(-1, n)
    row = np.arange(0, child.size, n)[:, None]
    # genes of each kept segment, flagged by value in that row's n flags
    in_segment = np.zeros(child.size, dtype=bool)
    in_segment[child + row] = keep
    # row-major boolean assignment fills each row's free positions in order
    child[~keep] = donor[~in_segment[donor + row]]
    return tuple(child.reshape((2,) + p1.shape))


def _swap_positions(n: int, u_a: np.ndarray, u_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct uniform positions per pair of uniform arrays in [0, 1)."""
    a = (u_a * n).astype(np.int64)
    b = (u_b * (n - 1)).astype(np.int64)
    return a, b + (b >= a)


def swap_mutation(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A copy of p, a permutation of 0..n-1 (else ValueError), as int64 with two
    distinct, uniformly chosen positions exchanged."""
    rng, q = _generator(rng), np.array(p)
    if q.ndim != 1:
        raise ValueError(f"p must be one permutation (1-D), got shape {q.shape}")
    n = len(q)
    q = check_permutation(q, n)
    if n < 2:
        log.warning("swap mutation on length-%d permutation is a no-op", n)
        return q
    a, b = _swap_positions(n, *rng.random((2, 1)))
    q[a], q[b] = q[b], q[a]
    return q


def selection_weights(costs) -> np.ndarray:
    """Roulette weights for minimization: lower cost, higher weight.

    costs must be a non-empty 1-D sequence of non-negative integers within
    int64, else ValueError.  Raw weight is (max + min - cost); when the
    cheapest cost is 0 the worst raw weight degenerates to 0, so 1 is added
    across the board to keep every weight positive.  Equal costs fall back to
    uniform weights.  The raw weights are formed in float64 from (max - cost),
    which cannot overflow.  A lower cost gets a strictly higher weight while
    every cost is below 2^52: the raw weights are then exact in float64 and
    stay distinct when divided by their sum.  Past that, nearby costs can
    round to one weight: in [0, 1, 2**62 + 5], costs 0 and 1 get equal
    weights.
    """
    costs = _as_int64("costs", costs)
    if costs.ndim != 1 or costs.size == 0:
        raise ValueError(f"costs must be a non-empty 1-D sequence, got shape {costs.shape}")
    lo = int(np.minimum.reduce(costs))
    hi = int(np.maximum.reduce(costs))
    if lo == hi:
        return np.full(costs.size, 1.0 / costs.size)
    raw = (hi - costs).astype(np.float64) + (lo or 1)
    return raw / np.add.reduce(raw)


def _pick(cumweights: np.ndarray, u):
    """Roulette index (or indices) of the uniform(s) u, spun over the wheel's total."""
    spin = cumweights.searchsorted(u * cumweights[-1], side="right")
    return np.minimum(spin, cumweights.size - 1)


def roulette_select(
    population: list[Chromosome], weights: np.ndarray, rng: np.random.Generator
) -> Chromosome:
    """Sample one chromosome with probability proportional to its weight.

    The weights need not sum to 1: the wheel spins over their total.  They
    must be finite and non-negative, and not all zero.
    """
    rng = _generator(rng)
    if len(population) != len(weights):
        raise ValueError("population and weights have different lengths")
    weights = np.asarray(weights, dtype=np.float64)
    if not (weights.size and np.isfinite(weights).all() and (weights >= 0).all() and weights.any()):
        raise ValueError("weights must be finite and non-negative, and not all zero")
    cum = np.cumsum(weights / weights.max())  # scaled, so the total cannot overflow
    return population[_pick(cum, rng.random())]


def evolve_step(inst: Instance, perms: np.ndarray, costs: np.ndarray, cfg: GaConfig,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int, int]:
    """One generation: elitist survivors plus roulette/crossover/mutation offspring.

    Takes the population as int64 perms (P, n) and costs (P,), else ValueError,
    and returns the next one with the number of full and of delta cost
    evaluations it took.  One gather of the elite rows and the roulette-picked
    parents builds the next population, and the children are its tail: rows 2i
    and 2i+1 of the tail start as verbatim copies of pair i's parents.  Each
    phase is one batched call that writes to the children by row index: order
    crossover on the rows of the crossed pairs, then swaps on the mutated rows.
    Every row of the next population, elite included, is then checked to be a
    permutation, else AssertionError, before any row is priced.  Crossover
    children are cost-evaluated in one batch; a mutated verbatim copy reuses
    its parent's cost through an O(n) swap delta instead.
    """
    pop_size, n, rng = cfg.population_size, inst.n, _generator(rng)
    if (perms.shape, perms.dtype, costs.shape, costs.dtype) != (
            (pop_size, n), np.int64, (pop_size,), np.int64):
        raise ValueError(f"expected int64 perms {(pop_size, n)} and int64 costs {(pop_size,)}, got "
                         f"{perms.dtype} perms {perms.shape} and {costs.dtype} costs {costs.shape}")
    elites = cfg.elitism_count

    cum = selection_weights(costs).cumsum()
    n_pairs = (pop_size - elites + 1) // 2
    blocks = rng.random((n_pairs, 11))

    # one gather builds the next population: the elite, then children 2i and
    # 2i+1 of pair i; an odd last child is bred and priced, then dropped
    rows = np.concatenate((costs.argsort(kind="stable")[:elites], _pick(cum, blocks[:, :2]).ravel()))
    next_perms, next_costs = perms.take(rows, axis=0), costs.take(rows)
    children, child_costs = next_perms[elites:], next_costs[elites:]
    crossed = blocks[:, 2] < cfg.crossover_rate
    first = crossed.nonzero()[0] * 2  # the rows of the crossed pairs' first children
    second = first + 1
    if first.size:
        cuts = (blocks[crossed, 3:5] * (n + 1)).astype(np.int64)
        cuts.sort(axis=1)
        # one statement, so the parents it gathers die before _costs
        children[first], children[second] = order_crossover_two_point(
            children.take(first, axis=0), children.take(second, axis=0), *cuts.T)

    # swaps before the check, and the check before either kernel reads a row
    coin, u_a, u_b = blocks[:, 5:].reshape(-1, 3).T  # one row per child
    mutated = (coin < cfg.mutation_rate * (n >= 2)).nonzero()[0]  # coins are >= 0: none at n < 2
    a, b = _swap_positions(n, u_a[mutated], u_b[mutated])
    genes = children.reshape(-1)  # a view: children is a tail of the fresh gather
    at_a, at_b = a + mutated * n, b + mutated * n
    genes[at_a], genes[at_b] = genes[at_b], genes[at_a]
    if not _is_permutation(next_perms):  # raised, not asserted, so it holds under python -O
        raise AssertionError("evolve_step: a row of the next population is not a permutation of 0..n-1")

    # swapping a and b back restores a mutated copy's parent, so the copy's cost
    # is the parent's minus that reverse delta, exactly in every tier
    copies = ~crossed[mutated >> 1]  # child k is of pair k >> 1
    copied = mutated[copies]
    if copied.size:
        deltas = _swap_deltas(inst, children.take(copied, axis=0), a[copies], b[copies])
        child_costs[copied] = _checked(child_costs[copied] - deltas)
    full = 0
    if first.size:
        dirty = np.concatenate((first, second))
        child_costs[dirty] = _costs(inst, children.take(dirty, axis=0))
        full = dirty.size
    return next_perms[:pop_size], next_costs[:pop_size], full, copied.size


def run(inst: Instance, cfg: GaConfig) -> GaResult:
    """Full GA run: evolve until max_generations, target_cost, or time limit."""
    rng = np.random.default_rng(cfg.rng_seed)
    start = time.perf_counter()
    perms, costs = init_population(inst, cfg.population_size, rng)
    full, delta = cfg.population_size, 0

    i = int(np.argmin(costs))
    best_perm, best_cost = perms[i], int(costs[i])
    history = [best_cost]
    generations = 0

    def done():
        return (cfg.target_cost is not None and best_cost <= cfg.target_cost
                or cfg.time_limit_s is not None and time.perf_counter() - start >= cfg.time_limit_s)

    while generations < cfg.max_generations and not done():
        perms, costs, step_full, step_delta = evolve_step(inst, perms, costs, cfg, rng)
        full, delta = full + step_full, delta + step_delta
        generations += 1
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_perm, best_cost = perms[i], int(costs[i])
        history.append(best_cost)

    return GaResult(
        best=Chromosome(best_perm, best_cost),
        generations_run=generations,
        full_evaluations=full,
        delta_evaluations=delta,
        wall_time_s=time.perf_counter() - start,
        history=history,
    )
