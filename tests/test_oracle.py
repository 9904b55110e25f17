from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qapga import (
    CostOverflowError, GaConfig, Instance, evaluate_cost, exhaustive_optimum, random_instance, run,
)
from qapga.instance import _costs
from qapga.oracle import _SUFFIX, OracleLimitError


def all_permutations(n):
    """every permutation of range(n) as rows, in lexicographic order"""
    return np.array(list(permutations(range(n))), dtype=np.int64)


class TestExhaustiveOptimum:
    def test_n1(self):
        inst = Instance("one", 1, np.array([[4]], np.int64), np.array([[5]], np.int64))
        res = exhaustive_optimum(inst)
        assert res.optimum == 20
        assert res.argmin.tolist() == [0]
        assert res.explored == 1

    def test_n2_tie_breaks_lexicographically(self):
        inst = Instance(
            "two", 2,
            np.array([[0, 1], [1, 0]], np.int64),
            np.array([[0, 3], [3, 0]], np.int64),
        )
        res = exhaustive_optimum(inst)
        assert res.optimum == 6
        assert res.argmin.tolist() == [0, 1]
        assert res.explored == 2

    def test_matches_min_over_all_permutations(self, tiny3):
        res = exhaustive_optimum(tiny3)
        costs = [evaluate_cost(tiny3, np.array(p)) for p in permutations(range(3))]
        assert res.optimum == min(costs)
        assert res.explored == 6

    def test_explored_is_factorial(self):
        rng = np.random.default_rng(8)
        for n in range(1, 8):
            inst = random_instance(n, 9, rng=rng)
            assert exhaustive_optimum(inst).explored == factorial(n)

    def test_refuses_above_limit(self):
        rng = np.random.default_rng(9)
        inst = random_instance(11, 5, rng=rng)
        with pytest.raises(OracleLimitError, match="n=11"):
            exhaustive_optimum(inst)

    def test_any_cost_beyond_int64_raises_even_when_the_optimum_fits(self):
        # the optimum is 2**62 (facility 0 at location 0 or 2), but the
        # permutations with p[0] = 1 cost 2**63, and every cost is checked
        flow = np.zeros((3, 3), np.int64)
        flow[0, 0] = 2**62
        inst = Instance("edge", 3, flow, np.diag([1, 2, 1]))
        assert evaluate_cost(inst, np.array([0, 1, 2])) == 2**62
        with pytest.raises(CostOverflowError):
            exhaustive_optimum(inst)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), big=st.sampled_from([None, 2**61, 2**62]), data=st.data())
    def test_matches_the_first_argmin_over_all_permutations(self, n, big, data):
        # entries in 0..2 make ties common, so the tie-break is exercised.  A
        # big flow entry puts the instance over the int64 budget: 2**61 keeps
        # every cost exact, 2**62 overflows wherever it meets a distance of 2
        cells = st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n)
        flow, dist = (np.array(data.draw(cells), np.int64).reshape(n, n) for _ in range(2))
        if big is not None:
            flow[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = big
        inst = Instance("ties", n, flow, dist)
        perms = all_permutations(n)
        try:
            ref = _costs(inst, perms)
        except CostOverflowError:
            with pytest.raises(CostOverflowError):
                exhaustive_optimum(inst)
            return
        res = exhaustive_optimum(inst)
        i = int(np.argmin(ref))
        assert res.optimum == ref[i]
        assert res.argmin.tolist() == perms[i].tolist()
        assert res.explored == factorial(n)

    def test_all_zero_n8_gives_the_identity(self):
        zero = np.zeros((8, 8), np.int64)
        res = exhaustive_optimum(Instance("zero", 8, zero, zero))
        assert res.optimum == 0
        assert res.argmin.tolist() == list(range(8))
        assert res.explored == factorial(8)

    @pytest.mark.parametrize("n", [2, 6, 7, 8, 9])
    def test_only_optimum_is_the_last_permutation(self, n):
        # only diagonal cells weigh: cost(p) = sum_i (i + 1) * (p[i] + 1), which
        # the rearrangement inequality makes smallest only at p = [n-1, ..., 0]
        w = np.diag(np.arange(1, n + 1))
        inst = Instance("last", n, w, w)
        ref = _costs(inst, all_permutations(n))
        assert np.flatnonzero(ref == ref.min()).tolist() == [factorial(n) - 1]
        res = exhaustive_optimum(inst)
        assert res.optimum == ref[-1]
        assert res.argmin.tolist() == list(range(n - 1, -1, -1))

    def test_n10_only_optimum_is_the_last_permutation(self):
        # the deepest prefix at the default limit (10 - _SUFFIX positions);
        # the rearrangement inequality gives the optimum without a reference
        n = 10
        w = np.diag(np.arange(1, n + 1))
        res = exhaustive_optimum(Instance("last10", n, w, w))
        assert res.optimum == sum((i + 1) * (n - i) for i in range(n))
        assert res.argmin.tolist() == list(range(n - 1, -1, -1))
        assert res.explored == factorial(10)

    @pytest.mark.parametrize("i, j, over", [
        (0, 7, [0, 7, 2, 3, 4, 5, 6, 1]), (7, 0, [1, 7, 2, 3, 4, 5, 6, 0]),
    ])
    def test_overflow_only_in_the_cross_part_raises(self, i, j, over):
        # at n=8 facility 0 heads each block and facility 7 ends its suffix, so
        # flow[0, 7] and flow[7, 0] weigh only in the cross part.  The cost is
        # 2**62 * dist[p[i], p[j]]: 2**62 mostly, 2**63 where that distance is 2
        flow = np.zeros((8, 8), np.int64)
        flow[i, j] = 2**62
        dist = np.ones((8, 8), np.int64)
        dist[0, 1] = 2
        inst = Instance("cross", 8, flow, dist)
        assert evaluate_cost(inst, np.arange(8)) == 2**62
        with pytest.raises(CostOverflowError):
            evaluate_cost(inst, np.array(over))
        with pytest.raises(CostOverflowError):
            exhaustive_optimum(inst)

    def test_over_budget_n8_matches_the_first_argmin_of_costs(self):
        # one big flow entry in each part (prefix 0-1, cross 1-5, suffix 6-3,
        # while the prefix is 2 or 3 facilities long) puts the instance over
        # the int64 budget.  Distances of 1..2 above the diagonal and 3..4
        # below it keep every cost within 3 * 2**59 .. 3 * 2**61 + 512, so the
        # Python-int path must be exact, and each big entry pulls the argmin
        # towards p[i] < p[j] for its cell (i, j)
        assert 2 <= 8 - _SUFFIX <= 3
        rng = np.random.default_rng(88)
        flow = rng.integers(0, 3, size=(8, 8))
        dist = 1 + 2 * np.tri(8, k=-1, dtype=np.int64) + rng.integers(0, 2, size=(8, 8))
        flow[0, 1] = flow[1, 5] = flow[6, 3] = 2**59
        inst = Instance("big8", 8, flow, dist)
        assert not inst.fits_int64
        perms = all_permutations(8)
        ref = _costs(inst, perms)
        res = exhaustive_optimum(inst)
        i = int(np.argmin(ref))
        assert res.optimum == ref[i] >= 3 * 2**59
        assert res.argmin.tolist() == perms[i].tolist()
        assert res.explored == factorial(8)

    @pytest.mark.parametrize("limit", [True, False, 10.0, "10", None, 0, -1])
    def test_rejects_a_limit_that_is_not_a_positive_integer(self, tiny3, limit):
        with pytest.raises(ValueError, match="limit must be an integer >= 1") as e:
            exhaustive_optimum(tiny3, limit=limit)
        assert not isinstance(e.value, OracleLimitError)

    def test_numpy_integer_limit(self, tiny3):
        assert exhaustive_optimum(tiny3, limit=np.int64(3)).explored == 6
        with pytest.raises(OracleLimitError):
            exhaustive_optimum(tiny3, limit=np.int32(2))

    def test_custom_limit(self):
        rng = np.random.default_rng(10)
        inst = random_instance(5, 5, rng=rng)
        with pytest.raises(OracleLimitError):
            exhaustive_optimum(inst, limit=4)


class TestRandomInstance:
    def test_zero_max_entry(self):
        inst = random_instance(4, 0, rng=np.random.default_rng(0))
        assert (inst.flow == 0).all() and (inst.dist == 0).all()
        assert exhaustive_optimum(inst).optimum == 0

    def test_symmetric_flag(self):
        inst = random_instance(8, 30, symmetric=True, rng=np.random.default_rng(1))
        assert (inst.flow == inst.flow.T).all()
        assert (inst.dist == inst.dist.T).all()

    def test_zero_diagonal_flag(self):
        inst = random_instance(8, 30, zero_diagonal=True, rng=np.random.default_rng(2))
        assert (np.diag(inst.flow) == 0).all()
        assert (np.diag(inst.dist) == 0).all()

    def test_deterministic_under_seed(self):
        a = random_instance(6, 50, rng=np.random.default_rng(77))
        b = random_instance(6, 50, rng=np.random.default_rng(77))
        assert a == b

    def test_entries_within_range(self):
        inst = random_instance(10, 7, rng=np.random.default_rng(3))
        assert inst.flow.max() <= 7 and inst.dist.max() <= 7

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_instance(0, 5)
        with pytest.raises(ValueError):
            random_instance(3, -1)


def test_ga_never_beats_oracle_and_mostly_matches():
    # smaller sibling of the full acceptance check: 15 instances, n in 2..6
    rng = np.random.default_rng(314)
    matched = 0
    for _ in range(15):
        n = int(rng.integers(2, 7))
        inst = random_instance(n, 20, zero_diagonal=True, rng=rng)
        opt = exhaustive_optimum(inst).optimum
        best = min(
            run(inst, GaConfig(max_generations=300, target_cost=opt, rng_seed=s)).best.cost
            for s in range(10)
        )
        assert best >= opt
        matched += best == opt
    assert matched >= 14
