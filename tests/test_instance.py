import copy
import os
import pickle
import platform
import re
import subprocess
import sys
from dataclasses import fields
from itertools import permutations
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qapga
from qapga import (
    CostOverflowError,
    Instance,
    ParseError,
    evaluate_cost,
    parse_qaplib,
    render_qaplib,
    selection_weights,
    swap_delta,
)
from qapga.instance import _CHUNK_CELLS, _costs, _swap_deltas, check_permutation, read_number
from qapga.oracle import exhaustive_optimum, random_instance

# the three tiers of Instance._exact, by the dtype of its operands, and their test
# ids: whether the worst-case cost fits int32 (True), only int64, or neither (False)
TIERS, TIER_IDS = (np.int32, np.int64, object), ("True", "int64", "False")


def tiered(name, flow, dist, tier):
    """Instance(name, n, flow, dist) with its operands in tier, asserted.  flow and dist
    must fit int32; flow[0, 0] and dist[0, -1] are then raised past the int32 budget
    (int64) or past the int64 budget (object).  At n=1 they are the one cost term."""
    if tier is not np.int32:
        flow[0, 0], dist[0, -1] = (2**24, 2**8) if tier is np.int64 else (2**40, 2**30)
    inst = Instance(name, len(flow), flow, dist)
    assert all(m.dtype == tier for m in inst._exact)
    return inst


def quadruple_sum_cost(inst, p):
    """Independent oracle: the 0/1 assignment-matrix formulation, all four sums."""
    n = inst.n
    x = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        x[i, p[i]] = 1
    total = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total += inst.flow[i, k] * inst.dist[j, l] * x[i, j] * x[k, l]
    return int(total)


class TestParse:
    def test_smallest_legal_instance(self):
        inst = parse_qaplib("1\n0\n0")
        assert inst.n == 1
        assert inst.flow.tolist() == [[0]]
        assert inst.dist.tolist() == [[0]]

    def test_row_major_fill(self):
        inst = parse_qaplib("2\n0 1\n1 0\n0 3\n3 0")
        assert inst.n == 2
        assert inst.flow.tolist() == [[0, 1], [1, 0]]
        assert inst.dist.tolist() == [[0, 3], [3, 0]]

    def test_arbitrary_whitespace(self):
        inst = parse_qaplib("2\n\n  0\t1\n\n1 0\n\n\n0 3 3\n0\n")
        assert inst.dist.tolist() == [[0, 3], [3, 0]]

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="expected 8 matrix entries, found 7"):
            parse_qaplib("2\n0 1\n1 0\n0 3\n3")

    def test_malformed_token_reports_position(self):
        with pytest.raises(ParseError, match=r"'x' at 2:3"):
            parse_qaplib("2\n0 x 1 0\n0 3 3 0")

    def test_negative_n(self):
        with pytest.raises(ParseError, match="positive"):
            parse_qaplib("-2\n0 1\n1 0\n0 3\n3 0")

    def test_negative_entry_reports_position(self):
        with pytest.raises(ParseError, match=r"negative matrix entry -3 at 4:1"):
            parse_qaplib("2\n0 1\n1 0\n-3 0\n0 3")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing garbage '9'"):
            parse_qaplib("2\n0 1\n1 0\n0 3\n3 0\n9")

    def test_entry_beyond_int64_reports_position(self):
        with pytest.raises(ParseError, match=r"at 3:3"):
            parse_qaplib(f"2\n0 1\n1 {2**63}\n0 3\n3 0")
        inst = parse_qaplib(f"1\n{2**63 - 1}\n1")
        assert inst.flow.tolist() == [[2**63 - 1]]

    @pytest.mark.parametrize("tok", ["1_0", "+5", "\u0663", "0x1", "1e3"])
    def test_only_ascii_digit_tokens(self, tok):
        with pytest.raises(ParseError, match=re.escape(f"'{tok}' at 3:3")):
            parse_qaplib(f"2\n0 1\n1 {tok}\n0 3\n3 0")
        with pytest.raises(ParseError, match=re.escape(f"'{tok}' at 1:1")):
            parse_qaplib(f"{tok}\n0\n0")

    def test_first_bad_token_wins(self):
        with pytest.raises(ParseError, match=f"{2**63} at 2:3"):
            parse_qaplib(f"2\n0 {2**63} x\n0 3 3")
        with pytest.raises(ParseError, match=r"'x' at 2:3"):
            parse_qaplib(f"2\n0 x {2**63}\n0 3 3")
        inst = parse_qaplib(f"1\n{'0' * 30}7\n1")
        assert inst.flow.tolist() == [[7]]

    def test_size_checked_before_allocating(self):
        with pytest.raises(ParseError, match="expected 20000000000 matrix entries, found 2"):
            parse_qaplib("100000\n1 2\n")
        with pytest.raises(ParseError, match="matrix entries, found 0"):
            parse_qaplib("99999999999999999999\n")

    def test_bytes_input(self):
        assert parse_qaplib(b"1\n3\n7\n").dist.tolist() == [[7]]
        with pytest.raises(ParseError, match="malformed token .* at 2:1"):
            parse_qaplib(b"1\n\xff\n7\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_qaplib("   \n ")

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 9):
            inst = random_instance(n, 30, rng=rng, name="rt")
            assert parse_qaplib(render_qaplib(inst), name="rt") == inst

    def test_round_trip_n100(self):
        inst = random_instance(100, 10**6, rng=np.random.default_rng(8), name="rt")
        assert parse_qaplib(render_qaplib(inst), name="rt") == inst

    def test_twenty_digit_entry_reports_position(self):
        with pytest.raises(ParseError, match=re.escape(
                "matrix entry 99999999999999999999 at 3:3 exceeds signed 64-bit range")):
            parse_qaplib("2\n0 1\n1 99999999999999999999\n0 3\n3 0")

    @pytest.mark.parametrize("entry", ["9" * 5000, "1" + "0" * 4300], ids=["5000-nines", "1e4300"])
    def test_entry_past_the_int_digit_limit_reports_position(self, entry):
        # int() refuses a string of more than 4300 digits with a bare ValueError
        with pytest.raises(ParseError, match=re.escape(
                f"matrix entry {entry} at 2:3 exceeds signed 64-bit range")):
            parse_qaplib(f"1\n3 {entry}\n")

    def test_long_zero_padded_entry_is_read_by_the_scan(self):
        with pytest.raises(ParseError, match=re.escape("trailing garbage 'x' at 2:5005")):
            parse_qaplib(f"1\n{'0' * 5000}7 5 x")

    def test_long_zero_padded_header_is_read_by_the_scan(self):
        # the scan names the bad entry, not the header that int() alone would refuse
        header = "0" * 5000 + "1"
        assert parse_qaplib(f"{header}\n3\n5").n == 1
        with pytest.raises(ParseError, match=re.escape(
                "malformed token 'x' at 3:1: expected matrix entry")):
            parse_qaplib(f"{header}\n3\nx")
        with pytest.raises(ParseError, match=re.escape(
                "instance size must be positive, got -1 at 1:1")):
            parse_qaplib(f"-{header}\n3\n5")

    def test_header_past_the_int_digit_limit_is_named(self):
        header = "1" + "0" * 4300
        with pytest.raises(ParseError, match=re.escape(
                f"malformed token '{header}' at 1:1: expected instance size n")):
            parse_qaplib(f"{header}\n3\n5")

    def test_non_digit_trailing_token(self):
        with pytest.raises(ParseError, match=re.escape("trailing garbage 'x' at 5:5")):
            parse_qaplib("2\n0 1\n1 0\n0 3\n3 0 x 9")

    @pytest.mark.parametrize("sep", ["\x1c", "\u00a0"])
    def test_non_ascii_whitespace_is_part_of_a_token(self, sep):
        tok = f"1{sep}0"
        for text in (f"2\n0 1\n1 {tok}\n0 3\n3 0", f"2\n0 1\n1 {tok}\n0 3\n3 0".encode()):
            with pytest.raises(ParseError, match=re.escape(
                    f"malformed token {tok!r} at 3:3: expected matrix entry")):
                parse_qaplib(text)

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\r\n"])
    def test_ascii_whitespace_separates(self, sep):
        inst = parse_qaplib(sep.join(["2", "0", "1", "1", "0", "0", "3", "3", "0"]) + sep)
        assert inst.flow.tolist() == [[0, 1], [1, 0]]
        assert inst.dist.tolist() == [[0, 3], [3, 0]]


def _reference_parse(text: str | bytes) -> tuple[int, list, list]:
    """parse_qaplib's grammar and messages from bytes.split() and int(): the
    header, then each matrix entry in order, then the count, then trailing tokens."""
    data = text.encode() if isinstance(text, str) else text
    tokens, offsets, at = data.split(), [], 0
    for tok in tokens:
        at = data.index(tok, at)
        offsets.append(at)
        at += len(tok)

    def where(k):
        at = offsets[k]
        line, col = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        return tokens[k].decode(errors="replace"), f"{line}:{col}"

    if not tokens:
        raise ParseError("unexpected end of input: expected instance size n")
    if not re.fullmatch(rb"-?[0-9]+", tokens[0]):
        tok, pos = where(0)
        raise ParseError(f"malformed token {tok!r} at {pos}: expected instance size n")
    n = int(tokens[0])
    if n < 1:
        raise ParseError(f"instance size must be positive, got {n} at {where(0)[1]}")
    size = 2 * n * n
    body = tokens[1 : 1 + size]
    for k, raw in enumerate(body, start=1):
        tok, pos = where(k)
        if re.fullmatch(rb"[0-9]+", raw):
            if int(raw) > 2**63 - 1:
                raise ParseError(f"matrix entry {tok} at {pos} exceeds signed 64-bit range")
        elif re.fullmatch(rb"-[0-9]+", raw):
            raise ParseError(f"negative matrix entry {tok} at {pos}")
        else:
            raise ParseError(f"malformed token {tok!r} at {pos}: expected matrix entry")
    if len(body) < size:
        raise ParseError(f"expected {size} matrix entries, found {len(body)}")
    if len(tokens) > 1 + size:
        tok, pos = where(1 + size)
        raise ParseError(f"trailing garbage {tok!r} at {pos}")
    values = [int(raw) for raw in body]
    return n, values[: n * n], values[n * n :]


_WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n"])
_ENTRIES = st.one_of(
    st.integers(0, 999).map(str),
    st.tuples(st.integers(1, 25), st.integers(0, 999)).map(lambda z: "0" * z[0] + str(z[1])),
    st.integers(10**17, 10**19 - 1).map(str),  # 18 and 19 digits, either side of 2^63
    st.integers(10**24, 10**25 - 1).map(str),
    st.sampled_from([str(2**63 - 1), str(2**63)]),
).map(str.encode)
_BAD_TOKENS = st.sampled_from([
    b"x", b"-3", b"-", b"+5", b"1_0", b"1e3", b"0x1", b"1.5", b"-99999999999999999999",
    b"1\x1c2", "1\u00a02".encode(), "\u0663".encode(), b"\xff", b"\x00", b"9\x7f",
    b"0", b"99999999999999999999",  # bad only as the instance size, bad only as an entry
])


@st.composite
def _qaplib_streams(draw):
    """A header, 2 n^2 entries and up to two trailing tokens, cut short or not,
    with at most one bad token in the header, the body or the trailing tokens;
    joined by random whitespace runs."""
    n = draw(st.integers(1, 3))
    size = 2 * n * n
    tokens = [str(n).encode()] + draw(st.lists(_ENTRIES, min_size=size, max_size=size + 2))
    where = draw(st.sampled_from(["none", "header", "body", "trailing"]))
    if where != "none":
        lo, hi = {"header": (0, 0), "body": (1, size), "trailing": (1 + size, 2 + size)}[where]
        tokens.insert(draw(st.integers(lo, hi)), draw(_BAD_TOKENS))
    if draw(st.integers(0, 3)) == 0:
        tokens = tokens[: draw(st.integers(0, size))]
    gap, edge = (st.lists(_WHITESPACE, min_size=k, max_size=3).map(b"".join) for k in (1, 0))
    data = draw(edge)
    for k, tok in enumerate(tokens):
        data += (draw(gap) if k else b"") + tok
    data += draw(edge)
    if draw(st.booleans()):
        try:
            return data.decode()
        except UnicodeDecodeError:
            pass
    return data


class TestParseAgainstReference:
    @staticmethod
    def outcome(parse, text):
        try:
            result = parse(text)
        except ParseError as e:
            return str(e)
        if isinstance(result, Instance):
            return result.n, result.flow.ravel().tolist(), result.dist.ravel().tolist()
        return result

    @settings(max_examples=500, deadline=None)
    @given(_qaplib_streams())
    def test_same_instance_or_message(self, text):
        assert self.outcome(parse_qaplib, text) == self.outcome(_reference_parse, text)

    @pytest.mark.parametrize("text, expected", [
        (f"1\n{2**63 - 1}\n5", (1, [2**63 - 1], [5])),
        (f"1\n{2**63}\n5", f"matrix entry {2**63} at 2:1 exceeds signed 64-bit range"),
        (f"1\n{'0' * 24}7\n5", (1, [7], [5])),
        (f"{'0' * 19}1\n3\n5", (1, [3], [5])),
        (" \t\n\v\f\r", "unexpected end of input: expected instance size n"),
        (b"1\n3\n5\n9\x1c9", "trailing garbage '9\\x1c9' at 4:1"),
    ], ids=["int64-max", "int64-max-plus-one", "zero-padded-entry", "zero-padded-header",
            "whitespace-only", "odd-byte-in-trailing-token"])
    def test_bulk_read_boundaries(self, text, expected):
        assert self.outcome(parse_qaplib, text) == self.outcome(_reference_parse, text) == expected


def test_fromstring_saturates_past_int64():
    """parse_qaplib's bulk read relies on np.fromstring reading a value past int64
    as 2^63 - 1, so that its values.max() < 2^63 - 1 check catches it."""
    values = np.fromstring(b"9223372036854775808 99999999999999999999", dtype=np.int64, sep=" ")
    assert values.tolist() == [2**63 - 1, 2**63 - 1]


class TestBulkRead:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The names of the np.fromstring, Instance and token-scan calls that
        parse_qaplib makes, in order; the first argument of np.fromstring too."""
        import qapga.instance as module

        calls = []
        for owner, name in ((np, "fromstring"), (module, "Instance"), (module, "_check_tokens")):
            def spy(*args, _real=getattr(owner, name), _name=name, **kwargs):
                calls.append((_name, args[0]) if _name == "fromstring" else _name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        return calls

    def test_a_valid_stream_is_one_conversion(self, calls):
        text = render_qaplib(random_instance(9, 99, rng=np.random.default_rng(3))).encode()
        data = b"\r\n" + text.replace(b" ", b"\t\v")
        parse_qaplib(data)
        assert calls == [("fromstring", data), "Instance"]

    @pytest.mark.parametrize("text, expected", [
        ("1\n3\nx", ["_check_tokens"]),
        ("0\n3\n5", [("fromstring", b"0\n3\n5"), "_check_tokens"]),
        ("1\n3\n5\n7", [("fromstring", b"1\n3\n5\n7"), "_check_tokens"]),
        (f"1\n3\n{2**63 - 1}", [("fromstring", f"1\n3\n{2**63 - 1}".encode()), "_check_tokens",
                                "Instance"]),
    ], ids=["odd-byte", "n-below-one", "wrong-count", "int64-max"])
    def test_the_scan_runs_only_after_a_failed_check(self, calls, text, expected):
        try:
            parse_qaplib(text)
        except ParseError:
            pass
        assert calls == expected


class TestEvaluateCost:
    def test_zero_flow_annihilates(self):
        inst = Instance("z", 3, np.zeros((3, 3), np.int64),
                        np.full((3, 3), 9, np.int64))
        assert evaluate_cost(inst, np.array([2, 0, 1])) == 0

    def test_identity_on_tiny3(self, tiny3):
        assert evaluate_cost(tiny3, np.array([0, 1, 2])) == 64

    def test_single_term(self):
        inst = Instance("one", 1, np.array([[7]], np.int64), np.array([[6]], np.int64))
        assert evaluate_cost(inst, np.array([0])) == 42

    def test_rejects_non_bijection(self, tiny3):
        with pytest.raises(ValueError, match="bijection"):
            evaluate_cost(tiny3, np.array([0, 0, 2]))

    def test_rejects_non_integral_entries(self, tiny3):
        with pytest.raises(ValueError, match="non-integral"):
            evaluate_cost(tiny3, [0.7, 1.2, 2.9])
        assert evaluate_cost(tiny3, [0.0, 1.0, 2.0]) == 64

    def test_rejects_length_mismatch(self, tiny3):
        with pytest.raises(ValueError, match="length"):
            evaluate_cost(tiny3, np.array([0, 1]))

    def test_matches_quadruple_sum_formulation(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            inst = random_instance(n, 20, rng=rng)
            p = rng.permutation(n)
            assert evaluate_cost(inst, p) == quadruple_sum_cost(inst, p)

    def test_relabeling_invariance(self):
        # relabeling facilities while permuting flow rows/columns to match
        # leaves the cost unchanged
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            inst = random_instance(n, 20, rng=rng)
            p = rng.permutation(n)
            sigma = rng.permutation(n)
            relabeled = Instance(
                "rl", n,
                inst.flow[np.ix_(sigma, sigma)].copy(),
                inst.dist.copy(),
            )
            assert evaluate_cost(relabeled, p[sigma]) == evaluate_cost(inst, p)

    def test_overflow_detected_not_wrapped(self):
        big = 10**9
        inst = Instance("big", 200,
                        np.full((200, 200), big, np.int64),
                        np.full((200, 200), big, np.int64))
        with pytest.raises(CostOverflowError):
            evaluate_cost(inst, np.arange(200))

    def test_big_entries_exact_when_in_range(self):
        # worst-case bound overflows but the true sum fits: exact path
        n = 4
        flow = np.zeros((n, n), np.int64)
        dist = np.zeros((n, n), np.int64)
        flow[0, 1] = 2**40
        dist[0, 1] = 2**20
        inst = Instance("edge", n, flow, dist)
        assert evaluate_cost(inst, np.arange(n)) == 2**60

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exact_up_to_the_int64_edge(self, data):
        # exact against a Python big-int sum, or CostOverflowError; never wrapped
        n = data.draw(st.integers(1, 6))
        entries = st.integers(0, 2**32)
        flow = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                        np.int64).reshape(n, n)
        dist = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                        np.int64).reshape(n, n)
        p = np.array(data.draw(st.permutations(range(n))))
        inst = Instance("edge", n, flow, dist)
        ref = sum(int(flow[i, k]) * int(dist[p[i], p[k]])
                  for i in range(n) for k in range(n))
        if ref > 2**63 - 1:
            with pytest.raises(CostOverflowError):
                evaluate_cost(inst, p)
        else:
            assert evaluate_cost(inst, p) == ref


def double_sum_cost(flow, dist, p):
    """Independent reference: the cost as a plain Python double sum."""
    n = len(p)
    return sum(flow[i][k] * dist[p[i]][p[k]] for i in range(n) for k in range(n))


class TestCostChunks:
    """_costs where its chunks of whole permutations and of facility rows end."""

    @staticmethod
    def boundary_perms(n, rng):
        rows = max(1, _CHUNK_CELLS // (n * n))
        for m in sorted({rows - 1, rows, rows + 1, 2 * rows + 1}):
            yield rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)

    # isqrt(C // 2) is the largest n with two permutations per chunk, isqrt(C)
    # the largest in one facility block; each is paired with the n past it
    @pytest.mark.parametrize("n", sorted({1, 2, 9, 12, 90, 91, 100, 128, 129, 200, 256} | {
        isqrt(_CHUNK_CELLS // 2), isqrt(_CHUNK_CELLS // 2) + 1,
        isqrt(_CHUNK_CELLS), isqrt(_CHUNK_CELLS) + 1}))
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_exact_at_chunk_boundaries(self, n, tier):
        rng = np.random.default_rng(n)
        flow, dist = (rng.integers(0, 100, size=(n, n)) for _ in range(2))
        inst = tiered("chunks", flow, dist, tier)
        flow, dist = inst.flow.tolist(), inst.dist.tolist()
        for perms in self.boundary_perms(n, rng):
            ref = [double_sum_cost(flow, dist, p) for p in perms.tolist()]
            if max(ref, default=0) > 2**63 - 1:
                with pytest.raises(CostOverflowError):
                    _costs(inst, perms)
            else:
                got = _costs(inst, perms)
                assert got.dtype == np.int64 and got.tolist() == ref

    @pytest.mark.parametrize("n", [9, 129])
    def test_overflow_in_a_later_chunk_raises(self, n):
        # cost >= 2**70 exactly when p[0] = 0 and p[1] = 1; the last of
        # rows + 1 permutations is the only such one and sits in the second chunk
        rng = np.random.default_rng(n)
        flow, dist = (rng.integers(0, 100, size=(n, n)) for _ in range(2))
        flow[0, 1] = 2**40
        dist[0, 1] = 2**30
        inst = Instance("late", n, flow, dist)
        rows = max(1, _CHUNK_CELLS // (n * n))
        perms = np.stack([np.roll(np.arange(n), 1)] * rows + [np.arange(n)])
        flow, dist = inst.flow.tolist(), inst.dist.tolist()
        assert _costs(inst, perms[:rows]).tolist() == [
            double_sum_cost(flow, dist, p) for p in perms[:rows].tolist()]
        assert double_sum_cost(flow, dist, perms[-1].tolist()) > 2**63 - 1
        with pytest.raises(CostOverflowError):
            _costs(inst, perms)


class TestTakeGather:
    """_costs on the facility-block path and on any chunk of whole permutations"""

    @staticmethod
    def random_case(n, m, tier, seed):
        rng = np.random.default_rng(seed)
        # below 64, so that the int32 tier reaches n=597
        flow, dist = (rng.integers(0, 64, size=(n, n)) for _ in range(2))
        inst = tiered("take", flow, dist, tier)
        return inst, rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)

    def assert_exact(self, inst, perms):
        flow, dist = inst.flow.tolist(), inst.dist.tolist()
        ref = [double_sum_cost(flow, dist, p) for p in perms.tolist()]
        if max(ref, default=0) > 2**63 - 1:
            with pytest.raises(CostOverflowError):
                _costs(inst, perms)
        else:
            got = _costs(inst, perms)
            assert got.dtype == np.int64 and got.tolist() == ref

    # one past isqrt(_CHUNK_CELLS) splits each permutation into a full facility
    # block and a short one (255 and 2 rows at 1 << 16); 7/3 of it into five full
    # blocks and a remainder (5 x 109 and 52 rows at n=597)
    @pytest.mark.parametrize("n", [isqrt(_CHUNK_CELLS) + 1, isqrt(_CHUNK_CELLS) * 7 // 3])
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_facility_blocks_match_the_double_sum(self, n, tier):
        assert n * n > _CHUNK_CELLS and n % (_CHUNK_CELLS // n)
        self.assert_exact(*self.random_case(n, 3, tier, seed=n))

    @pytest.mark.parametrize("n", [1, 9, 100, 150])
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_empty_input(self, n, tier):
        inst, perms = self.random_case(n, 0, tier, seed=n)
        got = _costs(inst, perms)
        assert got.dtype == np.int64 and got.shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), tier=st.sampled_from(TIERS), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_any_chunk_of_whole_permutations(self, n, tier, seed, data):
        rows = _CHUNK_CELLS // (n * n)
        m = data.draw(st.integers(0, 3 * rows), label="m")
        self.assert_exact(*self.random_case(n, m, tier, seed))

    @pytest.mark.parametrize("n", [12, 100, isqrt(_CHUNK_CELLS) + 1])
    def test_strided_views_of_a_population(self, n):
        for tier in TIERS:
            inst, pop = self.random_case(n, 9, tier, seed=n)
            before = pop.copy()
            for view in (pop[::2], pop[::-3], np.asfortranarray(pop), pop.reshape(3, 3, n)[:, 1]):
                assert not view.flags.c_contiguous
                self.assert_exact(inst, view)
            assert np.array_equal(pop, before)

    @pytest.mark.parametrize("n", [9, 40])
    def test_rows_past_the_first_inverted_span(self, n):
        # the one inverse scatter then covers more than _CHUNK_CELLS cells, a
        # batch (7283 rows at n=9) far larger than any caller sends
        self.assert_exact(*self.random_case(n, _CHUNK_CELLS // n + 2, np.int32, seed=n))

    def test_overflow_in_a_later_chunk_raises(self):
        # n = 25/16 of isqrt(_CHUNK_CELLS) has three facility blocks (rows 0-162,
        # 163-325 and 326-399 at 1 << 16, n=400).  The cost is >= 2**70 exactly
        # when p[i] = 0 and p[i + 1] = 1 for i = n - 10, which holds only in the
        # second permutation, inside its third block
        n = isqrt(_CHUNK_CELLS) * 25 // 16
        i, step = n - 10, _CHUNK_CELLS // n
        assert 2 * step <= i and i + 1 < min(3 * step, n)
        rng = np.random.default_rng(n)
        flow, dist = (rng.integers(0, 100, size=(n, n)) for _ in range(2))
        flow[i, i + 1] = 2**40
        dist[0, 1] = 2**30
        inst = Instance("late", n, flow, dist)
        bad = np.arange(n)
        bad[[0, 1, i, i + 1]] = [i, i + 1, 0, 1]
        perms = np.stack([np.roll(np.arange(n), 1), bad])
        flow, dist = inst.flow.tolist(), inst.dist.tolist()
        assert _costs(inst, perms[:1]).tolist() == [double_sum_cost(flow, dist, perms[0].tolist())]
        assert double_sum_cost(flow, dist, bad.tolist()) > 2**63 - 1
        with pytest.raises(CostOverflowError):
            _costs(inst, perms)


# a fresh process, as the allocator's state is the point: 3 warm-up calls of
# _costs at n=100, then the mean minor page faults of 20 more
FAULTS_PER_COSTS_CALL = """
import resource
import numpy as np
import qapga
from qapga.instance import _costs
inst = qapga.random_instance(100, 100, rng=np.random.default_rng(1))
perms = np.random.default_rng(2).permuted(np.tile(np.arange(100), (80, 1)), axis=1)
for _ in range(3):
    _costs(inst, perms)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    _costs(inst, perms)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_costs_gathers_do_not_fault_in_fresh_pages():
    # importing qapga raises glibc's mmap threshold, so the 512 KB gathers of
    # _costs reuse heap pages; without that they read about 2650 faults per call
    src = os.path.dirname(os.path.dirname(qapga.__file__))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_COSTS_CALL], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert float(out.stdout) < 100


class TestSwapDelta:
    def test_zero_flow(self):
        inst = Instance("z", 4, np.zeros((4, 4), np.int64),
                        np.arange(16, dtype=np.int64).reshape(4, 4))
        p = np.array([3, 1, 0, 2])
        assert swap_delta(inst, p, 0, 0, 2) == 0

    def test_matches_full_evaluation(self, tiny3):
        p = np.array([0, 1, 2])
        c = evaluate_cost(tiny3, p)
        q = np.array([1, 0, 2])
        for current in (c, np.int64(c), np.uint64(c), float(c)):
            assert swap_delta(tiny3, p, current, 0, 1) == evaluate_cost(tiny3, q)

    def test_swap_back_restores(self, tiny3):
        p = np.array([2, 0, 1])
        c = evaluate_cost(tiny3, p)
        after = swap_delta(tiny3, p, c, 0, 2)
        q = p.copy()
        q[0], q[2] = q[2], q[0]
        assert swap_delta(tiny3, q, after, 0, 2) == c

    def test_random_swaps_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            n = int(rng.integers(2, 15))
            inst = random_instance(n, 40, rng=rng)
            p = rng.permutation(n)
            c = evaluate_cost(inst, p)
            i, k = (int(v) for v in rng.choice(n, 2, replace=False))
            q = p.copy()
            q[i], q[k] = q[k], q[i]
            assert swap_delta(inst, p, c, i, k) == evaluate_cost(inst, q)

    def test_row_batched_deltas_match_swap_delta(self):
        from qapga.instance import _swap_deltas
        rng = np.random.default_rng(98)
        for tier in TIERS:  # true costs far below each tier's worst case
            n = 8
            inst = tiered("edge", *(rng.integers(0, 41, size=(n, n)) for _ in range(2)), tier)
            perms = np.stack([rng.permutation(n) for _ in range(30)])
            ab = np.stack([rng.choice(n, 2, replace=False) for _ in range(30)])
            deltas = _swap_deltas(inst, perms, ab[:, 0], ab[:, 1])
            for p, (i, k), d in zip(perms, ab, deltas):
                c = evaluate_cost(inst, p)
                assert swap_delta(inst, p, c, int(i), int(k)) == c + int(d)

    def test_swap_past_int64_raises(self):
        # cost 2**31 + 2**33 before the swap, 2**64 + 1 after it
        inst = Instance("over", 2, np.array([[0, 2**31], [1, 0]]),
                        np.array([[0, 1], [2**33, 0]]))
        assert inst._exact[0].dtype == object
        current = evaluate_cost(inst, np.array([0, 1]))
        assert current == 2**31 + 2**33
        with pytest.raises(CostOverflowError):
            evaluate_cost(inst, np.array([1, 0]))
        with pytest.raises(CostOverflowError):
            swap_delta(inst, np.array([0, 1]), current, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exact_or_overflow_beyond_int64_budget(self, data):
        # against a Python big-int sum of the swapped permutation, on instances
        # whose worst-case cost does not fit int64
        n = data.draw(st.integers(2, 6))
        entries = st.one_of(st.integers(0, 2**8), st.integers(0, 2**40))
        flow, dist = (
            np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)),
                     np.int64).reshape(n, n)
            for _ in range(2)
        )
        inst = Instance("big", n, flow, dist)
        assume(inst._exact[0].dtype == object)

        def big_int_cost(p):
            return sum(int(flow[i, k]) * int(dist[p[i], p[k]])
                       for i in range(n) for k in range(n))

        p = np.array(data.draw(st.permutations(range(n))))
        current = big_int_cost(p)
        assume(current <= 2**63 - 1)
        i, k = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        q = p.copy()
        q[i], q[k] = q[k], q[i]
        ref = big_int_cost(q)
        if ref > 2**63 - 1:
            with pytest.raises(CostOverflowError):
                swap_delta(inst, p, current, i, k)
        else:
            assert swap_delta(inst, p, current, i, k) == ref

    @pytest.mark.parametrize("current", [464.7, "12", -1, 2**63, None,
                                         [591], np.array([591]), [[591]]])
    def test_rejects_a_current_cost_that_is_not_an_int64(self, tiny3, current):
        with pytest.raises(ValueError, match="current cost"):
            swap_delta(tiny3, np.array([0, 1, 2]), current, 0, 1)

    @pytest.mark.parametrize("current", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_rejects_a_bool_current_cost(self, tiny3, current):
        with pytest.raises(ValueError, match="current cost must hold integers"):
            swap_delta(tiny3, np.array([0, 1, 2]), current, 0, 1)

    @pytest.mark.parametrize("current", [64, np.int64(64), np.uint8(64)])
    def test_accepts_an_integer_current_cost(self, tiny3, current):
        assert swap_delta(tiny3, np.array([0, 1, 2]), current, 0, 1) == \
            evaluate_cost(tiny3, np.array([1, 0, 2]))

    @pytest.mark.parametrize("index", [1.0, 1.5, True, "1", None, False, 2.5])
    def test_rejects_a_facility_index_that_is_not_an_integer(self, tiny3, index):
        with pytest.raises(ValueError, match="facility index i must be an integer"):
            swap_delta(tiny3, np.array([0, 1, 2]), 64, index, 2)
        with pytest.raises(ValueError, match="facility index k must be an integer"):
            swap_delta(tiny3, np.array([0, 1, 2]), 64, 2, index)

    def test_accepts_numpy_integer_indices(self, tiny3):
        assert swap_delta(tiny3, np.array([0, 1, 2]), 64, np.int64(0), np.int32(1)) == \
            evaluate_cost(tiny3, np.array([1, 0, 2]))

    def test_rejects_equal_indices(self, tiny3):
        with pytest.raises(ValueError, match="distinct"):
            swap_delta(tiny3, np.array([0, 1, 2]), 64, 1, 1)

    def test_rejects_out_of_range(self, tiny3):
        with pytest.raises(IndexError):
            swap_delta(tiny3, np.array([0, 1, 2]), 64, 0, 3)


TWO = Instance("two", 2, np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))
# each public entry point that reads an integer array, fed a bool array b, and the
# label its error names
BOOL_INPUTS = {
    "check_permutation": (lambda b: check_permutation(b, 2), "permutation"),
    "evaluate_cost": (lambda b: evaluate_cost(TWO, b), "permutation"),
    "swap_delta": (lambda b: swap_delta(TWO, b, 1, 0, 1), "permutation"),
    "selection_weights": (selection_weights, "costs"),
    "Instance": (lambda b: Instance("bool", 2, np.eye(2, dtype=bool) | b, TWO.dist),
                 "flow matrix"),
}


@pytest.mark.parametrize("entry", BOOL_INPUTS)
def test_bool_arrays_are_not_integers(entry):
    # [True, False] would otherwise read as the permutation [1, 0]
    call, label = BOOL_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{label} must hold integers, got dtype bool$"):
        call(np.array([True, False]))


class TestInstanceInvariants:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            Instance("bad", 3, np.zeros((2, 2), np.int64), np.zeros((3, 3), np.int64))

    def test_rejects_negative_entries(self):
        m = np.zeros((2, 2), np.int64)
        neg = m.copy()
        neg[0, 1] = -1
        with pytest.raises(ValueError, match="negative"):
            Instance("bad", 2, neg, m)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError, match=">= 1"):
            Instance("bad", 0, np.zeros((0, 0), np.int64), np.zeros((0, 0), np.int64))

    def test_int32_entries_are_widened(self):
        m = np.full((4, 4), 50000, np.int32)
        inst = Instance("i32", 4, m, m)
        assert inst.flow.dtype == np.int64 and inst.dist.dtype == np.int64
        assert evaluate_cost(inst, np.arange(4)) == 4 * 10**10

    def test_integral_floats_accepted(self):
        inst = Instance("f", 2, np.array([[0.0, 2.0], [3.0, 0.0]]),
                        np.array([[0, 5], [7, 0]], np.uint8))
        assert inst.flow.dtype == np.int64 and inst.dist.dtype == np.int64
        assert evaluate_cost(inst, np.arange(2)) == 2 * 5 + 3 * 7

    def test_rejects_non_integral_floats(self):
        m = np.zeros((2, 2), np.int64)
        with pytest.raises(ValueError, match="integ"):
            Instance("bad", 2, np.array([[0.0, 1.5], [1.0, 0.0]]), m)
        with pytest.raises(ValueError, match="integ"):
            Instance("bad", 2, m, np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_rejects_values_beyond_int64(self):
        m = np.zeros((2, 2), np.int64)
        with pytest.raises(ValueError, match="64-bit"):
            Instance("bad", 2, np.array([[0, 2**63], [1, 0]], np.uint64), m)
        with pytest.raises(ValueError, match="64-bit"):
            Instance("bad", 2, m, np.array([[0.0, 1e19], [1.0, 0.0]]))
        # 2.0**63 == float(INT64_MAX): only an exact integer comparison rejects it
        with pytest.raises(ValueError, match="64-bit"):
            Instance("bad", 2, m, np.array([[0.0, 2.0**63], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="64-bit"):
            check_permutation(np.array([0.0, 2.0**63]), 2)

    def test_matrices_are_frozen(self, tiny3):
        with pytest.raises(ValueError):
            tiny3.flow[0, 0] = 5

    def test_unhashable_by_name(self, tiny3):
        # equality compares the matrices, so no hash is defined; the error
        # names Instance, not the numpy array a field-wise hash would reach
        with pytest.raises(TypeError, match="unhashable type: 'Instance'"):
            hash(tiny3)
        with pytest.raises(TypeError, match="'Instance'"):
            {tiny3}
        twin = Instance(tiny3.name, tiny3.n, tiny3.flow.copy(), tiny3.dist.copy())
        assert twin == tiny3 and not twin != tiny3


class TestReadNumber:
    @pytest.mark.parametrize("kind, text, value", [
        (int, "0", 0), (int, "-3", -3), (int, "007", 7), (int, str(2**70), 2**70),
        (float, "0.5", 0.5), (float, "1", 1.0), (float, "-2.5e-3", -0.0025),
        (float, "+1.5", 1.5), (str, " nug12 ", " nug12 "),
    ])
    def test_accepts(self, kind, text, value):
        got = read_number(kind, text)
        assert got == value and type(got) is kind

    def test_float_keeps_nan_and_inf(self):
        assert np.isnan(read_number(float, "nan"))
        assert read_number(float, "inf") == float("inf")

    @pytest.mark.parametrize("kind, text", [
        (int, "1_0"), (int, "+5"), (int, "٣"), (int, " 578"), (int, "578 "),
        (int, "0x1"), (int, "1e3"), (int, "1.0"), (int, ""), (int, "-"), (int, "5\n"),
        (float, "1_0.5"), (float, "0_0.5"), (float, " 0.5"), (float, "0.5\t"),
        (float, "١.٥"), (float, ""), (float, "one"),
    ])
    def test_rejects(self, kind, text):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            read_number(kind, text)


class TestSwapDeltaRows:
    """_swap_deltas against full evaluation of each row before and after its swap"""

    @staticmethod
    def random_case(n, m, tier, seed):
        # asymmetric matrices with a nonzero diagonal; over budget, the true
        # costs still fit int64, so _costs can price both sides
        rng = np.random.default_rng(seed)
        flow, dist = (rng.integers(1, 100, size=(n, n)) for _ in range(2))
        flow[0, 1] = flow[1, 0] + 1  # never symmetric
        inst = tiered("rows", flow, dist, tier)
        perms = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        a = rng.integers(0, n, m)
        b = (a + rng.integers(1, n, m)) % n
        return inst, perms, a, b

    @staticmethod
    def swapped(perms, a, b):
        q = perms.copy()
        rows = np.arange(len(q))
        q[rows, a], q[rows, b] = perms[rows, b], perms[rows, a]
        return q

    def assert_deltas(self, inst, perms, a, b):
        want = _costs(inst, self.swapped(perms, a, b)) - _costs(inst, perms)
        got = _swap_deltas(inst, perms, a, b)
        assert [int(d) for d in got] == want.tolist()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 12), m=st.integers(1, 100), tier=st.sampled_from(TIERS[:2]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_change_in_full_cost(self, n, m, tier, seed):
        self.assert_deltas(*self.random_case(n, m, tier, seed))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 12), m=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_change_in_full_cost_over_budget(self, n, m, seed):
        self.assert_deltas(*self.random_case(n, m, object, seed))

    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_strided_and_int32_perms(self, tier):
        inst, perms, a, b = self.random_case(9, 40, tier, seed=7)
        assert not perms[::2].flags.c_contiguous
        for rows in (perms[::2], perms[::2].astype(np.int32)):
            self.assert_deltas(inst, rows, a[::2], b[::2])


class TestTransposes:
    @pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
    def test_read_only_contiguous_transposes(self, tier):
        rng = np.random.default_rng(5)
        inst = tiered("t", *(rng.integers(0, 51, size=(7, 7)) for _ in range(2)), tier)
        assert [f.name for f in fields(Instance)] == ["name", "n", "flow", "dist", "_exact"]
        flow, dist, flow_t, dist_t = inst._exact
        assert flow.dtype == dist.dtype == flow_t.dtype == dist_t.dtype == tier
        for m, m_t, given in ((flow, flow_t, inst.flow), (dist, dist_t, inst.dist)):
            assert np.array_equal(m, given) and np.array_equal(m_t, given.T)
            assert m_t.flags.c_contiguous and not m_t.flags.writeable
            with pytest.raises(ValueError):
                m_t[0, 1] = 5

    @pytest.mark.parametrize("round_trip", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy])
    def test_copies_keep_read_only_transposes(self, round_trip):
        rng = np.random.default_rng(6)
        small, big = random_instance(6, 50, rng=rng), random_instance(6, 1000, rng=rng)
        assert small._exact[0].dtype == np.int32
        tiers = [small]
        # worst case beyond int32: int64 operands; beyond int64: Python integers
        for top, tier in ((2**24, np.int64), (2**50, object)):
            flow = big.flow.copy()
            flow[0, 0] = top
            tiers.append(Instance("wide", 6, flow, big.dist))
            assert tiers[-1]._exact[0].dtype == tier
        perms = np.stack([rng.permutation(6) for _ in range(20)])
        a, b = np.array([rng.choice(6, 2, replace=False) for _ in range(20)]).T
        for inst in tiers:
            twin = round_trip(inst)
            assert twin == inst
            for m, m_inst in zip((twin.flow, twin.dist, *twin._exact),
                                 (inst.flow, inst.dist, *inst._exact)):
                assert m.dtype == m_inst.dtype
                assert np.array_equal(m, m_inst) and not m.flags.writeable
            assert np.array_equal(twin._exact[3], twin.dist.T)
            assert _costs(twin, perms).tolist() == _costs(inst, perms).tolist()
            assert (_swap_deltas(twin, perms, a, b).tolist()
                    == _swap_deltas(inst, perms, a, b).tolist())

    def test_repr_and_equality_ignore_transposes(self, tiny3):
        assert "_exact" not in repr(tiny3)
        assert tiny3 == Instance(tiny3.name, tiny3.n, tiny3.flow, tiny3.dist)


class TestInt32Edge:
    """The int32 tier up to its budget, n^2 * max(flow) * max(dist) <= 2**31 - 1:
    _costs, swap_delta and exhaustive_optimum against Python-integer double sums"""

    @staticmethod
    def tops(n):
        """The largest maxima of flow and dist, about equal, that the int32 budget allows at n"""
        top_f = isqrt((2**31 - 1) // (n * n))
        return top_f, (2**31 - 1) // (n * n * top_f)

    def edge_matrices(self, n, rng):
        """Entries of 0 or near the tops, so that rows differ by up to the maximum: the
        swap-delta terms are then near 2 * max(flow) * max(dist), half the budget at n=2"""
        return [np.where(rng.random((n, n)) < 0.5, 0, top - rng.integers(0, 2, (n, n)))
                for top in self.tops(n)]

    @staticmethod
    def assert_exact(inst, perms, swaps):
        """_costs on perms, swap_delta on their first swaps rows and, up to n=7, the
        oracle over every permutation, each against the double sum"""
        n = inst.n
        flow, dist = inst.flow.tolist(), inst.dist.tolist()
        assert inst._exact[0].dtype == np.int32
        ref = [double_sum_cost(flow, dist, p) for p in perms.tolist()]
        assert _costs(inst, perms).tolist() == ref
        for p, cost, (i, k) in zip(perms, ref, swaps):
            q = p.copy()
            q[[i, k]] = q[[k, i]]
            assert swap_delta(inst, p, cost, i, k) == double_sum_cost(flow, dist, q.tolist())
        if n <= 7:
            every = list(permutations(range(n)))
            costs = [double_sum_cost(flow, dist, p) for p in every]
            best = exhaustive_optimum(inst)
            assert best.optimum == min(costs) <= 2**31 - 1
            assert tuple(best.argmin.tolist()) == every[costs.index(min(costs))]

    # n * n * top: 2**31 - 1 (n=1, one permutation of exactly that cost) and 2**31 - 4
    # (n=2) run in int32; 2**31 in int64
    @pytest.mark.parametrize("n, top, tier", [
        (1, 2**31 - 1, np.int32), (1, 2**31, np.int64),
        (2, 2**29 - 1, np.int32), (2, 2**29, np.int64)])
    def test_tier_boundary(self, n, top, tier):
        flow = np.ones((n, n), np.int64)
        flow[0, 0] = top
        inst = Instance("edge", n, flow, np.ones((n, n), np.int64))
        assert inst._exact[0].dtype == inst._exact[2].dtype == tier
        assert inst.flow.dtype == inst.dist.dtype == np.int64
        cost = top + n * n - 1
        assert evaluate_cost(inst, np.arange(n)) == cost
        assert exhaustive_optimum(inst).optimum == cost

    # n = 2 and 3 bring the swap-delta terms closest to the budget; n = 7 has
    # prefix and cross parts in the oracle; the last n has two facility blocks
    @pytest.mark.parametrize("n", [2, 3, 7, 12, isqrt(_CHUNK_CELLS) + 1])
    def test_kernels_match_the_double_sum(self, n):
        rng = np.random.default_rng(n)
        inst = Instance("edge", n, *self.edge_matrices(n, rng))
        perms = rng.permuted(np.tile(np.arange(n), (12, 1)), axis=1)
        swaps = [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(6)]
        self.assert_exact(inst, perms, swaps)

    @pytest.mark.parametrize("n", [1, 2, 3, 12, isqrt(_CHUNK_CELLS) + 1])
    def test_every_cost_at_the_worst_case(self, n):
        # every entry at its top: each cost is the worst case, within n * n * top_f of 2**31
        top_f, top_d = self.tops(n)
        inst = Instance("top", n, np.full((n, n), top_f), np.full((n, n), top_d))
        worst = n * n * top_f * top_d
        assert 2**31 - 1 - n * n * top_f < worst <= 2**31 - 1
        rng = np.random.default_rng(n)
        perms = rng.permuted(np.tile(np.arange(n), (5, 1)), axis=1)
        assert _costs(inst, perms).tolist() == [worst] * 5
        if n > 1:
            assert swap_delta(inst, perms[0], worst, 0, n - 1) == worst
        if n <= 7:
            assert exhaustive_optimum(inst).optimum == worst

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_instance_within_the_budget(self, data):
        # n <= 6 lets the oracle check every permutation; from n = 6 it has a prefix
        n = data.draw(st.integers(1, 6), label="n")
        top_f = data.draw(st.integers(1, (2**31 - 1) // (n * n)), label="max(flow)")

        def matrix(top):
            cells = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
            return np.array(data.draw(st.lists(cells, min_size=n * n, max_size=n * n)),
                            np.int64).reshape(n, n)

        inst = Instance("edge", n, matrix(top_f), matrix((2**31 - 1) // (n * n * top_f)))
        perms = np.array(data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=8)))
        pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        swaps = data.draw(st.lists(pairs, max_size=len(perms))) if n > 1 else []
        self.assert_exact(inst, perms, swaps)
