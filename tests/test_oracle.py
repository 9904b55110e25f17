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
from qapga.oracle import OracleLimitError


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
