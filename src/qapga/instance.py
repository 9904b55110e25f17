"""QAP instances: QAPLIB-format parsing, exact cost evaluation, swap deltas.

An instance is a pair of n x n integer matrices (flow, dist); a solution is
a permutation p where p[i] is the location assigned to facility i.  The cost
of p is the full double sum over ordered facility pairs, diagonal included:

    cost(p) = sum_{i,k} flow[i][k] * dist[p[i]][p[k]]

Matrices are held as int64.  Each kernel is one numpy expression over an
exact dtype: int64 within the instance's int64 budget, Python integers
beyond it.  Costs that do not fit a signed 64-bit range raise
CostOverflowError instead of wrapping.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

INT64_MAX = 2**63 - 1
# most cost cells that _costs gathers at once (the output of each of its two
# takes); bounds peak memory whatever the batch a caller passes.  1 << 14 keeps
# each int64 temporary within 128 KB: larger chunks ran at half speed at n=30
# (BENCH_7.json) and made the n=9 oracle slower (BENCH_8.json)
_CHUNK_CELLS = 1 << 14


class QapError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(QapError):
    """Malformed QAPLIB input; message carries line:column position."""


class CostOverflowError(QapError):
    """Cost does not fit in a signed 64-bit integer."""


def _as_int64(label: str, m) -> np.ndarray:
    """m as an int64 array; non-integral, negative or too large entries are errors."""
    m = np.asarray(m)
    if m.dtype.kind not in "biuf":
        raise ValueError(f"{label} must hold integers, got dtype {m.dtype}")
    if m.dtype.kind == "f" and not (np.isfinite(m) & (m == np.trunc(m))).all():
        raise ValueError(f"{label} has non-integral entries")
    if (m < 0).any():
        raise ValueError(f"{label} has negative entries")
    if m.size and int(m.max()) > INT64_MAX:
        raise ValueError(f"{label} has entries beyond signed 64-bit range")
    return m.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class Instance:
    """A QAP instance: size n plus flow and distance matrices.

    The matrices are stored as read-only int64.  fits_int64 is true when the
    worst-case cost n^2 * max(flow) * max(dist) fits in int64, so that every
    cost and swap delta can be computed in int64 without overflow; otherwise
    the same kernels run in Python integers (see _exact).  Instances compare
    by value (__eq__ below) and are unhashable.
    """

    name: str
    n: int
    flow: np.ndarray
    dist: np.ndarray
    fits_int64: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for label in ("flow", "dist"):
            m = _as_int64(f"{label} matrix", getattr(self, label))
            if m.shape != (self.n, self.n):
                raise ValueError(
                    f"{label} matrix must be {self.n}x{self.n}, got {m.shape}"
                )
            m.setflags(write=False)
            object.__setattr__(self, label, m)
        worst = self.n * self.n * int(self.flow.max()) * int(self.dist.max())
        object.__setattr__(self, "fits_int64", worst <= INT64_MAX)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.name == other.name
            and self.n == other.n
            and np.array_equal(self.flow, other.flow)
            and np.array_equal(self.dist, other.dist)
        )


def check_permutation(p: np.ndarray, n: int) -> np.ndarray:
    """Validate that p is a bijection on {0..n-1}; returns p as an int array."""
    p = _as_int64("permutation", p)
    if p.shape != (n,):
        raise ValueError(f"permutation has length {p.shape}, expected ({n},)")
    if (p >= n).any():
        raise ValueError("permutation entries out of range")
    seen = np.zeros(n, dtype=bool)
    seen[p] = True
    if not seen.all():
        raise ValueError("permutation is not a bijection")
    return p


def _locate(data: bytes, k: int) -> tuple[str, str]:
    """Text and 'line:col' of the k-th whitespace-separated token (col counts
    bytes); only error messages need it, so it re-scans data from the start."""
    m = next(itertools.islice(re.finditer(rb"\S+", data), k, None))
    line = data.count(b"\n", 0, m.start()) + 1
    col = m.start() - data.rfind(b"\n", 0, m.start())
    return m.group().decode(errors="replace"), f"{line}:{col}"


def read_number(kind: type, text: str):
    """text as a kind value: an int is ASCII -?[0-9]+, a float is what float() takes minus
    underscores, surrounding whitespace and non-ASCII characters; a str passes; else ValueError."""
    if kind is int and not re.fullmatch("-?[0-9]+", text) or kind is float and (
            not text.isascii() or "_" in text or text != text.strip()):
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")
    return kind(text)


def parse_qaplib(text: str | bytes, name: str = "") -> Instance:
    """Parse a QAPLIB .dat stream: n, then two n x n matrices row-major.

    Tokens are ASCII digit runs [0-9]+ (read_number's int grammar, unsigned)
    separated by any ASCII whitespace, including blank lines.  Raises ParseError
    on malformed input, naming the first bad token and its line:column.
    """
    data = text.encode() if isinstance(text, str) else text
    tokens = data.split()
    if not tokens:
        raise ParseError("unexpected end of input: expected instance size n")
    try:
        n = read_number(int, tokens[0].decode(errors="replace"))
    except ValueError:
        tok, pos = _locate(data, 0)
        raise ParseError(f"malformed token {tok!r} at {pos}: expected instance size n") from None
    if n < 1:
        raise ParseError(f"instance size must be positive, got {n} at {_locate(data, 0)[1]}")

    size = 2 * n * n
    body = tokens[1 : 1 + size]
    # up to 18 digits always fits int64; longer tokens take the exact check
    if not all(map(bytes.isdigit, body)) or max(map(len, body), default=0) > 18:
        for k, raw in enumerate(body, start=1):
            if raw.isdigit() and int(raw) <= INT64_MAX:
                continue
            tok, pos = _locate(data, k)
            if raw.isdigit():
                raise ParseError(f"matrix entry {tok} at {pos} exceeds signed 64-bit range")
            if raw[:1] == b"-" and raw[1:].isdigit():
                raise ParseError(f"negative matrix entry {tok} at {pos}")
            raise ParseError(f"malformed token {tok!r} at {pos}: expected matrix entry")
    if len(body) < size:
        raise ParseError(f"expected {size} matrix entries, found {len(body)}")
    if len(tokens) > 1 + size:
        tok, pos = _locate(data, 1 + size)
        raise ParseError(f"trailing garbage {tok!r} at {pos}")

    values = np.array(list(map(int, body)), dtype=np.int64)
    return Instance(
        name=name, n=n, flow=values[: n * n].reshape(n, n), dist=values[n * n :].reshape(n, n)
    )


def render_qaplib(inst: Instance) -> str:
    """Canonical writer: n, blank line, flow matrix, blank line, dist matrix."""
    def rows(m):
        return "\n".join(" ".join(str(v) for v in row) for row in m)

    return f"{inst.n}\n\n{rows(inst.flow)}\n\n{rows(inst.dist)}\n"


def _exact(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """flow and dist in a dtype whose arithmetic is exact for this instance:
    the int64 matrices within the int64 budget, else Python integers."""
    if inst.fits_int64:
        return inst.flow, inst.dist
    return inst.flow.astype(object), inst.dist.astype(object)


def _checked(costs: np.ndarray) -> np.ndarray:
    """Exact costs as int64; a cost beyond int64 raises CostOverflowError (int64
    input comes from within the int64 budget and is returned as is)."""
    if costs.dtype == object and (top := max(costs, default=0)) > INT64_MAX:
        raise CostOverflowError(f"cost {top} exceeds signed 64-bit range")
    return costs.astype(np.int64, copy=False)


def _costs(inst: Instance, perms: np.ndarray) -> np.ndarray:
    """Exact costs of the rows of perms (m, n), unvalidated, as int64 (m,).

    Cell (i, k) of row q is dist[q[i], q[k]], weighted by flow[i, k].  The
    cells are read with two 1-D takes, never through an index of n * n cells,
    at most _CHUNK_CELLS cells at a time:
      - while two or more whole rows of perms fit, r of them at once: take the
        columns q of dist for all r rows, so row l * r + j of by_col holds
        dist[l, q_j]; then take row q_j[i] * r + j of by_col for each cell
        row (j, i);
      - otherwise one permutation p at a time, in blocks of facility rows (one
        block while n * n fits): the rows p[block] of dist, then their
        columns p.  At one permutation per chunk this ran faster than the
        first form (BENCH_8.json).
    Arithmetic is in the exact dtype of _exact; a cost beyond int64 raises
    CostOverflowError.
    """
    flow, dist = _exact(inst)
    n = inst.n
    out = np.empty(len(perms), dtype=flow.dtype)
    rows = _CHUNK_CELLS // (n * n)
    if rows > 1:
        weights = flow.ravel()
        for s in range(0, len(perms), rows):
            q = perms[s : s + rows]
            r = len(q)
            by_col = np.take(dist, q, axis=1).reshape(n * r, n)
            cells = np.take(by_col, q * r + np.arange(r)[:, None], axis=0)
            out[s : s + r] = np.einsum("pk,k->p", cells.reshape(r, n * n), weights)
        return _checked(out)
    step = _CHUNK_CELLS // n  # facility rows per block
    blocks = [(slice(f, f + step), flow[f : f + step]) for f in range(0, n, step)]
    for j, p in enumerate(perms):
        out[j] = sum(
            np.einsum("ik,ik->", np.take(np.take(dist, p[block], axis=0), p, axis=1), weights)
            for block, weights in blocks
        )
    return _checked(out)


def evaluate_cost(inst: Instance, p: np.ndarray) -> int:
    """Exact cost of permutation p: sum over all ordered pairs, diagonal included."""
    p = check_permutation(p, inst.n)
    return int(_costs(inst, p[None])[0])


def _swap_deltas(
    inst: Instance, perms: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Exact cost change of exchanging perms[r, a[r]] and perms[r, b[r]], per row.

    O(n) per row, no symmetry assumed: only terms touching facility a or b
    change.  The j-sums cover all facilities and the two cells at j in
    {a, b} are taken back out; the four cells within {a, b} (diagonals
    included) are added explicitly.  The deltas come in the exact dtype of
    _exact, unchecked: callers pass current + delta through _checked.
    """
    flow, dist = _exact(inst)
    rows = np.arange(len(perms))
    u = perms[rows, a][:, None]
    v = perms[rows, b][:, None]
    cross = (flow[a] - flow[b]) * (dist[v, perms] - dist[u, perms]) + (
        flow[:, a].T - flow[:, b].T
    ) * (dist[perms, v] - dist[perms, u])
    u, v = u[:, 0], v[:, 0]
    return (
        cross.sum(axis=1)
        - cross[rows, a]
        - cross[rows, b]
        + (flow[a, a] - flow[b, b]) * (dist[v, v] - dist[u, u])
        + (flow[a, b] - flow[b, a]) * (dist[v, u] - dist[u, v])
    )


def swap_delta(inst: Instance, p: np.ndarray, current: int, i: int, k: int) -> int:
    """Cost after exchanging p[i] and p[k], in O(n) given the current cost."""
    p = check_permutation(p, inst.n)
    if not (0 <= i < inst.n and 0 <= k < inst.n):
        raise IndexError(f"facility index out of range: i={i}, k={k}, n={inst.n}")
    if i == k:
        raise ValueError("swap requires two distinct facilities")
    delta = int(_swap_deltas(inst, p[None], np.array([i]), np.array([k]))[0])
    return int(_checked(np.array([int(current) + delta], dtype=object))[0])
