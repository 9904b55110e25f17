"""Brute-force ground truth for small instances, plus a random-instance
generator for property tests."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, permutations
from math import factorial

import numpy as np

from .instance import _CHUNK_CELLS, Instance, _costs

DEFAULT_LIMIT = 10


class OracleLimitError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    argmin: np.ndarray  # lexicographically smallest optimal permutation
    explored: int  # always n!


def exhaustive_optimum(inst: Instance, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Enumerate all n! permutations; deterministic lexicographic tie-break.

    itertools.permutations yields in lexicographic order and is evaluated in
    chunks of rows; keeping the first minimum of each chunk and the first
    strict improvement across chunks gives the lexicographically smallest
    argmin.
    """
    if inst.n > limit:
        raise OracleLimitError(
            f"n={inst.n} exceeds the enumeration limit {limit}; refusing"
        )
    n = inst.n
    rows = max(1, _CHUNK_CELLS // (n * n))
    perms = permutations(range(n))
    best_cost = None
    best_perm = None
    while True:
        chunk = np.fromiter(chain.from_iterable(islice(perms, rows)), dtype=np.int64)
        if not chunk.size:
            break
        chunk = chunk.reshape(-1, n)
        costs = _costs(inst, chunk)
        i = int(np.argmin(costs))
        if best_cost is None or costs[i] < best_cost:
            best_cost = int(costs[i])
            best_perm = chunk[i].copy()
    return OracleResult(optimum=best_cost, argmin=best_perm, explored=factorial(inst.n))


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
