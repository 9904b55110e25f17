"""Brute-force ground truth for small instances, plus a random-instance
generator for property tests.

exhaustive_optimum costs every permutation, one block per prefix of the
first positions, as three exact parts: the prefix's own terms (one scalar
per block), the cross terms between prefix and suffix facilities (one take
through a table of all suffix orderings), and the suffix's own terms, which
depend only on the set of free locations and are computed once per set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from numbers import Integral

import numpy as np

from .instance import Instance, _checked, _exact

DEFAULT_LIMIT = 10
# positions that each block fills from one table of all their orderings; 5
# gives blocks of 120 permutations and 126 suffix sets at n=9.  In-process at
# n=9, 6 ran 3.5x and 7 2.3x faster than 5, but perfbench's oracle-n9
# peak_rss_mb rose 12-15% with 6, past its 10% bound, because perfbench keeps
# 200 set-up samples per solve and so counts faster solves as memory; 7 took
# 8.6 MB more of its own.  5 kept the rise to 2% (BENCH_10.json)
_SUFFIX = 5


class OracleLimitError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    argmin: np.ndarray  # lexicographically smallest optimal permutation
    explored: int  # always n!


def exhaustive_optimum(inst: Instance, limit: int = DEFAULT_LIMIT) -> OracleResult:
    """Enumerate all n! permutations; deterministic lexicographic tie-break.

    Each prefix of the first h = n - k positions, k = min(n, _SUFFIX), taken
    in the lexicographic order of itertools.permutations, heads one block of
    k! rows: the prefix, then rest[t] for each row t of table, where rest is
    the unused locations in ascending order and table is every ordering of
    range(k) in lexicographic order.  A row's cost is the sum of three exact
    parts:
      - prefix: flow[i, j] * dist[pre_i, pre_j] over i, j < h, one scalar;
      - cross: sum_s lift[s, t_s], where lift[s, l] holds the terms between
        suffix facility h + s at location rest_l and every prefix facility;
      - suffix: flow[h + s, h + s'] * dist[rest[t_s], rest[t_s']] over all
        s, s'.  It depends only on the free set rest, so it is computed once
        per set and reused by all h! prefixes that leave that set free.
    An ascending rest keeps the table's order, so the blocks run through all
    permutations in lexicographic order; the first minimum of each block and
    the first strict improvement across blocks give the lexicographically
    smallest argmin.  Arithmetic is in the exact dtype of _exact and every
    cost is checked, so one beyond int64 raises CostOverflowError.
    """
    if isinstance(limit, bool) or not isinstance(limit, Integral) or limit < 1:
        raise ValueError(f"limit must be an integer >= 1, got {limit!r}")
    if inst.n > limit:
        raise OracleLimitError(
            f"n={inst.n} exceeds the enumeration limit {limit}; refusing"
        )
    flow, dist = _exact(inst)
    n = inst.n
    k = min(n, _SUFFIX)
    h = n - k
    table = np.array(list(permutations(range(k))), dtype=np.intp)
    cross_cells = (table + np.arange(k) * k).T  # (k, k!): flat index of lift[s, t_s]
    suffix_cells = (table[:, :, None] * k + table[:, None, :]).reshape(len(table), k * k)
    # row l is dist[l, :] and row n + l is dist[:, l], so one take per block
    # reads both directions between the prefix and every location
    both_ways = np.concatenate([dist, dist.T])
    flow_pre, flow_suffix = flow[:h, :h], flow[h:, h:].ravel()
    # lift = flow_cross @ pre_rows[:, rest]: column i < h weighs dist[pre_i, rest_l]
    # by flow[i, h + s], column h + i weighs dist[rest_l, pre_i] by flow[h + s, i]
    flow_cross = np.concatenate([flow[:h, h:].T, flow[h:, :h]], axis=1)
    suffix_costs = {}
    best_cost = best_perm = None
    for prefix in permutations(range(n), h):
        pre = list(prefix)
        rest = [loc for loc in range(n) if loc not in prefix]
        suffix = suffix_costs.get(key := tuple(rest))
        if suffix is None:
            cells = np.take(dist[rest][:, rest], suffix_cells)
            suffix = suffix_costs[key] = np.einsum("pk,k->p", cells, flow_suffix)
        pre_rows = both_ways[pre + [n + loc for loc in pre]]  # (2h, n)
        lift = flow_cross @ pre_rows[:, rest]
        costs = _checked(
            np.take(lift, cross_cells).sum(axis=0)
            + suffix
            + (flow_pre * pre_rows[:h, pre]).sum()
        )
        i = int(np.argmin(costs))
        if best_cost is None or costs[i] < best_cost:
            best_cost = int(costs[i])
            best_perm = np.array(pre + [rest[t] for t in table[i]], dtype=np.int64)
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
