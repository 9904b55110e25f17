"""Brute-force ground truth for small instances, plus a random-instance
generator for property tests."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

from .instance import Instance, _costs

DEFAULT_LIMIT = 10
# positions that each block fills from one table of all their orderings; 6
# gives blocks of 720 permutations.  At n=9 it ran the oracle in 0.47 of the
# time of building every permutation with itertools; 5 (0.62) and 8 (0.54)
# were slower, and 7 (0.46) took 1.1 MB more peak memory (BENCH_9.json)
_SUFFIX = 6


class OracleLimitError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    argmin: np.ndarray  # lexicographically smallest optimal permutation
    explored: int  # always n!


def exhaustive_optimum(inst: Instance, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Enumerate all n! permutations; deterministic lexicographic tie-break.

    Each prefix of the first n - k positions, k = min(n, _SUFFIX), taken in
    the lexicographic order of itertools.permutations, gets one block of k!
    rows: the prefix, then rest[table], where rest is the unused locations in
    ascending order and table is every ordering of range(k) in lexicographic
    order.  An ascending rest keeps the table's order, so the blocks run
    through all permutations in lexicographic order; the first minimum of
    each block and the first strict improvement across blocks give the
    lexicographically smallest argmin.  Every cost is computed, so one
    beyond int64 raises CostOverflowError.
    """
    if inst.n > limit:
        raise OracleLimitError(
            f"n={inst.n} exceeds the enumeration limit {limit}; refusing"
        )
    n = inst.n
    k = min(n, _SUFFIX)
    table = np.array(list(permutations(range(k))), dtype=np.int64)
    block = np.empty((len(table), n), dtype=np.int64)
    best_cost = None
    best_perm = None
    for prefix in permutations(range(n), n - k):
        rest = np.array([loc for loc in range(n) if loc not in prefix])
        block[:, : n - k] = prefix
        block[:, n - k :] = rest[table]
        costs = _costs(inst, block)
        i = int(np.argmin(costs))
        if best_cost is None or costs[i] < best_cost:
            best_cost = int(costs[i])
            best_perm = block[i].copy()
    return OracleResult(optimum=best_cost, argmin=best_perm, explored=factorial(n))


def random_instance(
    n: int,
    max_entry: int,
    symmetric: bool = False,
    zero_diagonal: bool = False,
    rng: np.random.Generator | None = None,
    name: str = "random",
) -> Instance:
    """Uniform integer matrices in [0, max_entry], optionally symmetrized
    (upper triangle mirrored) and zero-diagonal."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_entry < 0:
        raise ValueError("max_entry must be >= 0")
    rng = np.random.default_rng() if rng is None else rng

    def matrix():
        m = rng.integers(0, max_entry + 1, size=(n, n), dtype=np.int64)
        if symmetric:
            upper = np.triu(m)
            m = upper + upper.T - np.diag(np.diag(m))
        if zero_diagonal:
            np.fill_diagonal(m, 0)
        return m

    return Instance(name=name, n=n, flow=matrix(), dist=matrix())
