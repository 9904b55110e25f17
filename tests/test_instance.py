import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qapga import (
    CostOverflowError,
    Instance,
    ParseError,
    evaluate_cost,
    parse_qaplib,
    render_qaplib,
    swap_delta,
)
from qapga.instance import _CHUNK_CELLS, _costs, read_number
from qapga.oracle import random_instance


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

    @pytest.mark.parametrize("n", [1, 2, 9, 12, 100, 129, 200])
    @pytest.mark.parametrize("fits", [True, False])
    def test_exact_at_chunk_boundaries(self, n, fits):
        rng = np.random.default_rng(n)
        flow, dist = (rng.integers(0, 100, size=(n, n)) for _ in range(2))
        if not fits:  # worst case beyond int64; only n=1 has a cost beyond it too
            flow[0, 0] = 2**40
            dist[0, -1] = 2**30
        inst = Instance("chunks", n, flow, dist)
        assert inst.fits_int64 is fits
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
    def random_case(n, m, fits, seed):
        rng = np.random.default_rng(seed)
        flow, dist = (rng.integers(0, 100, size=(n, n)) for _ in range(2))
        if not fits:  # worst case beyond int64; only n=1 has a cost beyond it too
            flow[0, 0] = 2**40
            dist[0, -1] = 2**30
        inst = Instance("take", n, flow, dist)
        assert inst.fits_int64 is fits
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

    @pytest.mark.parametrize("n", [150, 256])
    @pytest.mark.parametrize("fits", [True, False])
    def test_facility_blocks_match_the_double_sum(self, n, fits):
        # n=150 splits each permutation into facility blocks of 109 and 41 rows
        assert n * n > _CHUNK_CELLS
        self.assert_exact(*self.random_case(n, 3, fits, seed=n))

    @pytest.mark.parametrize("n", [1, 9, 100, 150])
    @pytest.mark.parametrize("fits", [True, False])
    def test_empty_input(self, n, fits):
        inst, perms = self.random_case(n, 0, fits, seed=n)
        got = _costs(inst, perms)
        assert got.dtype == np.int64 and got.shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 40), fits=st.booleans(), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_any_chunk_of_whole_permutations(self, n, fits, seed, data):
        rows = _CHUNK_CELLS // (n * n)
        m = data.draw(st.integers(0, 3 * rows), label="m")
        self.assert_exact(*self.random_case(n, m, fits, seed))

    def test_overflow_in_a_later_chunk_raises(self):
        # n=200: facility blocks of rows 0-80, 81-161 and 162-199.  The cost is
        # >= 2**70 exactly when p[190] = 0 and p[191] = 1, which holds only in
        # the second permutation, inside its last block
        n = 200
        rng = np.random.default_rng(n)
        flow, dist = (rng.integers(0, 100, size=(n, n)) for _ in range(2))
        flow[190, 191] = 2**40
        dist[0, 1] = 2**30
        inst = Instance("late", n, flow, dist)
        bad = np.arange(n)
        bad[[0, 1, 190, 191]] = [190, 191, 0, 1]
        perms = np.stack([np.roll(np.arange(n), 1), bad])
        flow, dist = inst.flow.tolist(), inst.dist.tolist()
        assert _costs(inst, perms[:1]).tolist() == [double_sum_cost(flow, dist, perms[0].tolist())]
        assert double_sum_cost(flow, dist, bad.tolist()) > 2**63 - 1
        with pytest.raises(CostOverflowError):
            _costs(inst, perms)


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
        assert swap_delta(tiny3, p, c, 0, 1) == evaluate_cost(tiny3, q)

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
        for fits in (True, False):
            n = 8
            inst = random_instance(n, 40, rng=rng)
            if not fits:  # worst case beyond int64, true costs far below it
                flow = inst.flow.copy()
                flow[0, 0] = 2**56
                inst = Instance("edge", n, flow, inst.dist)
            assert inst.fits_int64 is fits
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
        assert not inst.fits_int64
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
        assume(not inst.fits_int64)

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

    def test_rejects_equal_indices(self, tiny3):
        with pytest.raises(ValueError, match="distinct"):
            swap_delta(tiny3, np.array([0, 1, 2]), 64, 1, 1)

    def test_rejects_out_of_range(self, tiny3):
        with pytest.raises(IndexError):
            swap_delta(tiny3, np.array([0, 1, 2]), 64, 0, 3)


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
