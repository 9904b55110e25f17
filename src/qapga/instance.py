"""QAP instances: QAPLIB-format parsing, exact cost evaluation, swap deltas.

An instance is a pair of n x n integer matrices (flow, dist); a solution is
a permutation p where p[i] is the location assigned to facility i.  The cost
of p is the full double sum over ordered facility pairs, diagonal included:

    cost(p) = sum_{i,k} flow[i][k] * dist[p[i]][p[k]]

Matrices are held as int64.  Each kernel reads Instance._exact, the operands
(flow, dist, flow_t, dist_t) with C-contiguous transposes, so that every
kernel reads rows: with q = p^-1, the cost of p is trace(dist[p] @ flow_t[q]).
All four take the first of three tiers that holds the worst-case cost
n^2 * max(flow) * max(dist): int32 up to 2^31 - 1, int64 up to 2^63 - 1, else
Python integers.  Within a fixed-width tier every product, partial sum and
cost stays within the tier's range, so nothing wraps.  Costs that do not fit
a signed 64-bit range raise CostOverflowError, never wrap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

INT32_MAX = 2**31 - 1
INT64_MAX = 2**63 - 1
# most cells in each of the two row gathers of _costs, the pad column aside:
# 256 KB of int32 or 512 KB of int64 each, whatever the batch.  Beside them a
# call holds one facility block's padded columns of flow_t and the inverse of
# its batch.  glibc serves a block past its mmap threshold (128 KB by default)
# with a fresh mmap whose pages fault in on every call, so this size relies on
# the block freed below (BENCH_16.json).  The padding makes the flow_t gather's
# rows odd in length, as the einsum reads it down its columns: with rows of 128
# cells (n=128) or 64 (n=256) it ran 1.2x slower
_CHUNK_CELLS = 1 << 16

# Freeing an mmapped block raises glibc's dynamic mmap threshold to the block's
# size, 4 MB, and its trim threshold to twice that (mallopt(3)), for the whole
# process: the gathers of _costs and _swap_deltas then come from the heap and
# stay mapped between calls.  Under other C libraries this is one allocation.
np.empty(1 << 22, dtype=np.uint8)


class QapError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(QapError):
    """Malformed QAPLIB input; message carries line:column position."""


class CostOverflowError(QapError):
    """Cost does not fit in a signed 64-bit integer."""


def _as_int64(label: str, m) -> np.ndarray:
    """m as int64.  A bool array is an error, not 0s and 1s, and so are non-integral,
    negative or too large (uint, float) entries."""
    m = np.asarray(m)
    if m.dtype.kind not in "iuf":
        raise ValueError(f"{label} must hold integers, got dtype {m.dtype}")
    if m.dtype.kind == "f" and not (np.isfinite(m) & (m == np.trunc(m))).all():
        raise ValueError(f"{label} has non-integral entries")
    if (m < 0).any():
        raise ValueError(f"{label} has negative entries")
    if m.dtype.kind in "uf" and m.size and int(m.max()) > INT64_MAX:
        raise ValueError(f"{label} has entries beyond signed 64-bit range")
    return m.astype(np.int64, copy=False)


class _Record:
    """Base of the frozen dataclasses that hold arrays: Instance, OracleResult and
    Chromosome.  A record keeps read-only copies of its arrays (_own), compares its
    constructor fields with np.array_equal (derived fields are ignored), is
    unhashable, and copies and pickles through its constructor."""

    __hash__ = None

    def _own(self, name: str, a) -> None:
        """Set field name to a read-only, C-contiguous copy of a."""
        a = np.array(a, order="C")
        a.setflags(write=False)
        object.__setattr__(self, name, a)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.init)

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, eq=False)
class Instance(_Record):
    """A QAP instance: integer size n >= 1 plus flow and distance matrices.

    The matrices are stored as read-only int64 copies.  _exact holds the
    read-only operands (flow, dist, flow.T, dist.T) as the kernels read them,
    the transposes C-contiguous, all four made once in the first tier that
    holds the worst-case cost n^2 * max(flow) * max(dist): int32 up to
    2^31 - 1, int64 up to 2^63 - 1, else Python integers.  No cost, product
    or partial sum of a kernel can then leave the tier's range.  As a
    _Record, it compares by name, n and matrices.
    """

    name: str
    n: int
    flow: np.ndarray
    dist: np.ndarray
    _exact: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, Integral) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        n = int(self.n)
        object.__setattr__(self, "n", n)
        for label in ("flow", "dist"):
            m = _as_int64(f"{label} matrix", getattr(self, label))
            if m.shape != (n, n):
                raise ValueError(f"{label} matrix must be {n}x{n}, got {m.shape}")
            self._own(label, m)
        worst = n * n * int(self.flow.max()) * int(self.dist.max())
        tier = np.int32 if worst <= INT32_MAX else np.int64 if worst <= INT64_MAX else object
        ops = [np.asarray(m, dtype=tier) for m in (self.flow, self.dist)]  # int64: no copy
        exact = (*ops, *(np.ascontiguousarray(m.T) for m in ops))
        for m in exact:
            m.setflags(write=False)
        object.__setattr__(self, "_exact", exact)


def check_permutation(p: np.ndarray, n: int) -> np.ndarray:
    """Validate that p is a bijection on {0..n-1}; returns p as an int array."""
    p = _as_int64("permutation", p)
    if p.shape != (n,):
        raise ValueError(f"permutation has length {p.shape}, expected ({n},)")
    if (p >= n).any():
        raise ValueError("permutation entries out of range")
    if not _is_permutation(p):
        raise ValueError("permutation is not a bijection")
    return p


def _is_permutation(perms: np.ndarray) -> bool:
    """Whether each row along the last axis holds 0..n-1 exactly once, n the row length."""
    ordered = perms.copy()
    ordered.sort(axis=-1)
    return bool((ordered == np.arange(perms.shape[-1])).all())


def read_number(kind: type, text: str):
    """text as a kind value: an int is ASCII -?[0-9]+, a float is what float() takes minus
    underscores, surrounding whitespace and non-ASCII characters; a str passes; else ValueError."""
    if kind is int and not re.fullmatch("-?[0-9]+", text) or kind is float and (
            not text.isascii() or "_" in text or text != text.strip()):
        raise ValueError(f"invalid {kind.__name__} value: {text!r}")
    return kind(text)


def _check_tokens(data: bytes) -> None:
    """Raise ParseError on the first bad token of data, in parse_qaplib's order:
    a bad header, else the first bad matrix entry, else a short count, else the
    first trailing token.  Returns if there is none."""
    tokens = re.finditer(rb"\S+", data)  # in a bytes pattern, \s is the six ASCII bytes

    def where(m: re.Match) -> tuple[str, str]:
        """Text and 'line:col' of token m (col counts bytes), for error messages."""
        at = m.start()
        line, col = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        return m[0].decode(errors="replace"), f"{line}:{col}"

    head = next(tokens, None)
    if head is None:
        raise ParseError("unexpected end of input: expected instance size n")
    tok, pos = where(head)
    try:  # int() refuses past 4300 digits, zeros too: drop the leading ones, as entries do
        n = read_number(int, re.sub("^(-?)0+(?=[0-9])", r"\1", tok))
    except ValueError:
        raise ParseError(f"malformed token {tok!r} at {pos}: expected instance size n") from None
    if n < 1:
        raise ParseError(f"instance size must be positive, got {n} at {pos}")
    size, found = 2 * n * n, 0
    for found, m in zip(range(1, size + 1), tokens):  # the range ends first: no token lost
        raw = m[0]
        digits = raw.lstrip(b"0")  # 2^63 - 1 has 19 digits; int() refuses past 4300, zeros too
        if raw.isdigit() and len(digits) <= 19 and int(digits or b"0") <= INT64_MAX:
            continue
        tok, pos = where(m)
        if raw.isdigit():
            raise ParseError(f"matrix entry {tok} at {pos} exceeds signed 64-bit range")
        if raw[:1] == b"-" and raw[1:].isdigit():
            raise ParseError(f"negative matrix entry {tok} at {pos}")
        raise ParseError(f"malformed token {tok!r} at {pos}: expected matrix entry")
    if found < size:
        raise ParseError(f"expected {size} matrix entries, found {found}")
    if (extra := next(tokens, None)) is not None:
        tok, pos = where(extra)
        raise ParseError(f"trailing garbage {tok!r} at {pos}")


def parse_qaplib(text: str | bytes, name: str = "") -> Instance:
    """Parse a QAPLIB .dat stream: n, then two n x n matrices row-major.

    Tokens are ASCII digit runs [0-9]+ (read_number's int grammar, unsigned)
    separated by runs of the six bytes bytes.split() treats as whitespace
    (space, \\t, \\n, \\v, \\f, \\r), blank lines included.  Raises
    ParseError on malformed input, naming the first bad token and its
    line:column: a bad header, else the first bad matrix entry, else a short
    count, else the first trailing token.

    A stream of digits and whitespace is read whole, header included, by one
    np.fromstring, and accepted when n >= 1, the count is 1 + 2n^2 and every
    value is below 2^63 - 1: np.fromstring saturates a value past int64 at
    2^63 - 1, so the last check lets no wrong value through.  Only a stream
    that fails a check has its tokens scanned, to name the first bad one; if
    none is bad (an entry of exactly 2^63 - 1), the values read stand.
    """
    data = text.encode() if isinstance(text, str) else text
    values = np.empty(0, dtype=np.int64)
    # whitespace alone goes to the scan: np.fromstring reads it as [0] (numpy 2)
    if not data.isspace() and not data.translate(None, b"0123456789 \t\n\v\f\r"):
        values = np.fromstring(data, dtype=np.int64, sep=" ")
    n = int(values[0]) if values.size else 0
    if not (n >= 1 and values.size == 1 + 2 * n * n and values.max() < INT64_MAX):
        _check_tokens(data)  # any other byte makes a bad token, so this raises
    flow, dist = values[1:].reshape(2, n, n)
    return Instance(name=name, n=n, flow=flow, dist=dist)


def render_qaplib(inst: Instance) -> str:
    """Canonical writer: n, blank line, flow matrix, blank line, dist matrix."""
    def rows(m):
        return "\n".join(" ".join(str(v) for v in row) for row in m)

    return f"{inst.n}\n\n{rows(inst.flow)}\n\n{rows(inst.dist)}\n"


def _checked(costs: np.ndarray) -> np.ndarray:
    """Exact costs as int64; a cost beyond int64 raises CostOverflowError (int32
    and int64 input comes from within its tier's budget, so it is widened or
    returned as is, and only Python integers are checked)."""
    if costs.dtype == object and (top := max(costs, default=0)) > INT64_MAX:
        raise CostOverflowError(f"cost {top} exceeds signed 64-bit range")
    return costs.astype(np.int64, copy=False)


def _costs(inst: Instance, perms: np.ndarray) -> np.ndarray:
    """Exact costs of the rows of perms (m, n) as int64 (m,).  Rows are permutations,
    checked or drawn as such by every caller: a non-bijective row leaves cells of inv unset.

    With q the inverse of a row p, cost(p) = sum_{i,l} dist[p[i], l] *
    flow[i, q[l]], the trace of dist[p] @ flow_t[q]: both factors are row
    gathers, and no column is gathered.  One scatter inverts the whole batch.
    Facilities i go in blocks of `step` (all n while n * n <= _CHUNK_CELLS).
    Per block, its columns of flow_t are padded to rows of odd length; then per
    chunk of `rows` permutations, one take of the rows p[block] of dist, one
    take of the rows q of those columns, and one einsum add the trace of their
    product to each row's cost.  So a call holds two gathers of at most 256 KB
    (int32) or 512 KB (int64) each, the pad column aside, one block's padded
    columns and the inverse of the batch (see _CHUNK_CELLS for why that size).
    At n=100 a chunk holds 6 rows, so 80 rows take 14 einsum passes.
    Arithmetic, accumulator included, is in the dtype of inst._exact: each
    term is one flow entry times one dist entry and each sum at most the
    worst-case cost, so an int32 or int64 tier holds them; a cost beyond int64
    raises CostOverflowError.
    """
    flow, dist, flow_t, _ = inst._exact
    n = inst.n
    out = np.zeros(len(perms), dtype=flow.dtype)
    inv = np.empty(perms.shape, dtype=np.intp)
    inv[np.arange(len(perms))[:, None], perms] = np.arange(n)
    step = min(n, max(1, _CHUNK_CELLS // n))  # facilities per block
    rows = max(1, _CHUNK_CELLS // (n * step))  # permutations per chunk
    for f in range(0, n, step):
        w = min(step, n - f)
        cols = np.zeros((n, w | 1), dtype=flow.dtype)  # rows of odd length
        cols[:, :w] = flow_t[:, f : f + w]
        for s in range(0, len(perms), rows):  # one expression, so no gather outlives its einsum
            out[s : s + rows] += np.einsum(
                "ril,rli->r", dist.take(perms[s : s + rows, f : f + w], axis=0),
                cols.take(inv[s : s + rows], axis=0)[..., :w])
    return _checked(out)


def evaluate_cost(inst: Instance, p: np.ndarray) -> int:
    """Exact cost of permutation p: sum over all ordered pairs, diagonal included."""
    p = check_permutation(p, inst.n)
    return int(_costs(inst, p[None])[0])


def _row_diff(m: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """m[v] - m[u], subtracted in place into the fresh gather m[v]."""
    d = m.take(v, axis=0)
    d -= m.take(u, axis=0)
    return d


def _swap_deltas(inst: Instance, perms: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact cost change of exchanging perms[r, a[r]] and perms[r, b[r]], per row.
    Rows are permutations; every caller checks them first.

    O(n) per row, no symmetry assumed: only terms touching facility a or b
    change.  With u = perms[r, a[r]] and v = perms[r, b[r]], the change in
    dist toward each location is one row difference, dist[v] - dist[u], and
    from each location one row difference of the transpose, dist_t[v] -
    dist_t[u]; each is read at the row's locations perms[r] with one flat
    take.  The flow weights are likewise rows of flow and flow_t.  The
    j-sums cover all facilities and the two cells at j in {a, b} are taken
    back out; the four cells within {a, b} (diagonals included) are added
    explicitly.  Differences and products are formed in place in fresh
    gathers.  Out-of-place temporaries once made glibc trim the heap and page
    it back in on every call (BENCH_11.json); with the trim threshold raised
    at import they fault no more, but still ran about 5% slower per n=100
    swap-only generation (BENCH_16.json).  Products and their sum per cell are
    formed in the dtype of inst._exact: each cell is at most 2 * max(flow) *
    max(dist) in magnitude, within the worst case for n >= 2.  numpy sums
    fixed-width rows in int64, and the deltas come in int64 (or Python
    integers), unchecked: callers pass current + delta through _checked.
    """
    flow, dist, flow_t, dist_t = inst._exact
    rows = np.arange(len(perms))
    u = perms[rows, a]
    v = perms[rows, b]
    idx = perms + (rows * inst.n)[:, None]
    cross = _row_diff(dist, v, u).take(idx)
    cross *= _row_diff(flow, a, b)
    in_d = _row_diff(dist_t, v, u).take(idx)
    in_d *= _row_diff(flow_t, a, b)
    cross += in_d
    return (
        np.add.reduce(cross, axis=1)
        - cross[rows, a]
        - cross[rows, b]
        + (flow[a, a] - flow[b, b]) * (dist[v, v] - dist[u, u])
        + (flow[a, b] - flow[b, a]) * (dist[v, u] - dist[u, v])
    )


def swap_delta(inst: Instance, p: np.ndarray, current: int, i: int, k: int) -> int:
    """Cost after exchanging p[i] and p[k], in O(n) given the current cost (an int64 scalar)."""
    p = check_permutation(p, inst.n)
    for name, index in (("i", i), ("k", k)):
        if isinstance(index, bool) or not isinstance(index, Integral):
            raise ValueError(f"facility index {name} must be an integer, got {index!r}")
    if not (0 <= i < inst.n and 0 <= k < inst.n):
        raise IndexError(f"facility index out of range: i={i}, k={k}, n={inst.n}")
    if i == k:
        raise ValueError("swap requires two distinct facilities")
    current = _as_int64("current cost", current)
    if current.ndim:
        raise ValueError(f"current cost must be a scalar, got shape {current.shape}")
    delta = int(_swap_deltas(inst, p[None], np.array([i]), np.array([k]))[0])
    return int(_checked(np.array([int(current) + delta], dtype=object))[0])
