import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qapga
from qapga import (
    Chromosome,
    CostOverflowError,
    GaConfig,
    evaluate_cost,
    init_population,
    order_crossover_two_point,
    roulette_select,
    run,
    selection_weights,
    swap_mutation,
)
from qapga.ga import _CONFIG_FIELDS, evolve_step
from qapga.instance import Instance, check_permutation
from qapga.oracle import exhaustive_optimum, random_instance


def is_bijection(p, n):
    return sorted(p.tolist()) == list(range(n))


class TestInitPopulation:
    def test_n1_all_identical(self):
        inst = Instance("one", 1, np.array([[3]], np.int64), np.array([[2]], np.int64))
        perms, costs = init_population(inst, 2, np.random.default_rng(0))
        assert perms.tolist() == [[0], [0]]
        assert all(c == 6 for c in costs)

    def test_all_feasible_with_cached_costs(self):
        rng = np.random.default_rng(1)
        inst = random_instance(5, 10, rng=rng)
        perms, costs = init_population(inst, 50, rng)
        for perm, cost in zip(perms, costs):
            assert is_bijection(perm, 5)
            assert cost == evaluate_cost(inst, perm)

    def test_rejects_size_below_two(self):
        inst = random_instance(3, 5, rng=np.random.default_rng(2))
        with pytest.raises(ValueError):
            init_population(inst, 1, np.random.default_rng(0))

    def test_uniform_over_permutations_n3(self):
        inst = random_instance(3, 5, rng=np.random.default_rng(3))
        perms, _ = init_population(inst, 60000, np.random.default_rng(17))
        counts = {}
        for perm in perms:
            counts[tuple(perm.tolist())] = counts.get(tuple(perm.tolist()), 0) + 1
        assert len(counts) == 6
        for freq in counts.values():
            assert abs(freq / 60000 - 1 / 6) < 0.01


class TestCrossover:
    def test_full_segment_reproduces_parents(self):
        p1 = np.array([2, 4, 3, 1, 0])
        p2 = np.array([0, 1, 2, 3, 4])
        c1, c2 = order_crossover_two_point(p1, p2, 0, 5)
        assert c1.tolist() == p1.tolist()
        assert c2.tolist() == p2.tolist()

    def test_empty_segment_swaps_parents(self):
        p1 = np.array([2, 4, 3, 1, 0])
        p2 = np.array([0, 1, 2, 3, 4])
        for cut in range(6):
            c1, c2 = order_crossover_two_point(p1, p2, cut, cut)
            assert c1.tolist() == p2.tolist()
            assert c2.tolist() == p1.tolist()

    def test_hand_traced_fill(self):
        # 0-based form of the worked five-gene example: fix positions [1, 3)
        p1 = np.array([1, 3, 2, 0, 4])  # facilities 2,4,3,1,5 one-based
        p2 = np.array([0, 1, 2, 3, 4])
        c1, c2 = order_crossover_two_point(p1, p2, 1, 3)
        assert c1.tolist() == [0, 3, 2, 1, 4]  # 1,4,3,2,5 one-based
        assert c2.tolist() == [3, 1, 2, 0, 4]  # 4,2,3,1,5 one-based

    def test_rejects_bad_cuts(self):
        p = np.arange(4)
        with pytest.raises(ValueError, match="cut"):
            order_crossover_two_point(p, p, 3, 2)
        with pytest.raises(ValueError, match="cut"):
            order_crossover_two_point(p, p, 0, 5)

    @pytest.mark.parametrize("cuts", [(1.5, 3.7), (False, True), (1.0, 3)])
    def test_rejects_non_integer_cuts(self, cuts):
        # a float cut would be truncated and a bool cut read as 0 or 1
        p = np.arange(5)
        with pytest.raises(ValueError, match="cut points must be integers"):
            order_crossover_two_point(p, p[::-1], *cuts)

    def test_rejects_one_cut_pair_for_stacked_pairs(self):
        p = np.stack([np.arange(4), np.arange(4)[::-1]])
        with pytest.raises(ValueError, match="one cut pair per pair"):
            order_crossover_two_point(p, p[::-1], 1, 3)

    def test_stacked_pairs_fill_from_strided_views(self):
        # evolve_step passes the rows of a (pairs, 2, n) gather, as strided views
        rng = np.random.default_rng(13)
        n, m = 7, 25
        pairs = np.stack([[rng.permutation(n), rng.permutation(n)] for _ in range(m)])
        cuts = np.sort(rng.integers(0, n + 1, (m, 2)), axis=1)
        c1, c2 = order_crossover_two_point(pairs[:, 0], pairs[:, 1], *cuts.T)
        for r in range(m):
            e1, e2 = order_crossover_two_point(pairs[r, 0].copy(), pairs[r, 1].copy(), *cuts[r])
            assert c1[r].tolist() == e1.tolist() and c2[r].tolist() == e2.tolist()

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            order_crossover_two_point(np.arange(4), np.arange(5), 0, 2)

    def test_random_pairs_stay_bijections(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(2, 15))
            p1 = rng.permutation(n)
            p2 = rng.permutation(n)
            cut1, cut2 = sorted(rng.integers(0, n + 1, 2).tolist())
            c1, c2 = order_crossover_two_point(p1, p2, cut1, cut2)
            assert is_bijection(c1, n) and is_bijection(c2, n)
            assert c1[cut1:cut2].tolist() == p1[cut1:cut2].tolist()
            assert c2[cut1:cut2].tolist() == p2[cut1:cut2].tolist()

    def test_stacked_pairs_match_row_by_row(self):
        rng = np.random.default_rng(12)
        n, m = 9, 40
        p1 = np.stack([rng.permutation(n) for _ in range(m)])
        p2 = np.stack([rng.permutation(n) for _ in range(m)])
        cuts = np.sort(rng.integers(0, n + 1, (m, 2)), axis=1)
        c1, c2 = order_crossover_two_point(p1, p2, cuts[:, 0], cuts[:, 1])
        for r in range(m):
            e1, e2 = order_crossover_two_point(p1[r], p2[r], *cuts[r])
            assert c1[r].tolist() == e1.tolist() and c2[r].tolist() == e2.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_children_are_permutations(self, data):
        n = data.draw(st.integers(2, 10))
        p1 = np.array(data.draw(st.permutations(range(n))))
        p2 = np.array(data.draw(st.permutations(range(n))))
        cut1 = data.draw(st.integers(0, n))
        cut2 = data.draw(st.integers(cut1, n))
        c1, c2 = order_crossover_two_point(p1, p2, cut1, cut2)
        assert is_bijection(c1, n) and is_bijection(c2, n)


class TestMutation:
    def test_n2_only_one_swap(self):
        out = swap_mutation(np.array([0, 1]), np.random.default_rng(0))
        assert out.tolist() == [1, 0]

    def test_hand_traced_swap(self):
        # positions 1 and 3 (0-based) exchanged on the five-gene example
        p = np.array([1, 3, 2, 0, 4])
        q = p.copy()
        q[1], q[3] = q[3], q[1]
        assert q.tolist() == [1, 0, 2, 3, 4]  # 2,1,3,4,5 one-based

    def test_exactly_two_positions_differ(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            n = int(rng.integers(2, 20))
            p = rng.permutation(n)
            q = swap_mutation(p, rng)
            assert is_bijection(q, n)
            assert int((p != q).sum()) == 2

    def test_rejects_a_stack_of_rows(self):
        # len() of a 2-D array counts its rows, which would be swapped whole
        with pytest.raises(ValueError, match=re.escape("1-D), got shape (2, 3)")):
            swap_mutation(np.array([[0, 1, 2], [2, 1, 0]]), np.random.default_rng(0))

    def test_degenerate_length_one(self, caplog):
        p = np.array([0])
        with caplog.at_level("WARNING"):
            q = swap_mutation(p, np.random.default_rng(0))
        assert q.tolist() == [0]
        assert any("no-op" in r.message for r in caplog.records)


class TestSelection:
    def test_equal_costs_uniform(self):
        w = selection_weights([7, 7, 7, 7])
        assert np.allclose(w, 0.25)

    def test_worked_ratio(self):
        for costs in ([10, 30], [10.0, 30.0], np.array([10, 30], np.uint64)):
            w = selection_weights(costs)
            assert np.allclose(w, [0.75, 0.25])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            costs = rng.integers(0, 10**6, size=int(rng.integers(1, 40)))
            w = selection_weights(costs)
            assert abs(w.sum() - 1.0) < 1e-12
            assert (w > 0).all()

    def test_strictly_decreasing_in_cost(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            size = int(rng.integers(2, 30))
            costs = rng.choice(10**6, size=size, replace=False)
            w = selection_weights(costs)
            order = np.argsort(costs)
            assert (np.diff(w[order]) < 0).all()

    def test_zero_min_cost_keeps_weights_positive(self):
        w = selection_weights([0, 5, 10])
        assert (w > 0).all()
        assert w[0] > w[1] > w[2]

    def test_costs_near_1e17_stay_positive(self):
        costs = 10**17 + np.arange(100, dtype=np.int64) * 10**12
        w = selection_weights(costs)
        assert (w > 0).all()
        assert abs(w.sum() - 1.0) < 1e-9

    def test_costs_near_2_62_do_not_overflow(self):
        # float64 cannot tell these weights apart; they must not wrap or raise
        w = selection_weights([2**62, 2**62 + 5])
        assert (w > 0).all() and w[0] >= w[1]
        assert abs(w.sum() - 1.0) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=60))
    def test_weights_property(self, costs):
        w = selection_weights(costs)
        assert np.isfinite(w).all() and (w > 0).all()
        assert abs(w.sum() - 1.0) < 1e-9
        order = np.argsort(np.array(costs, dtype=np.int64), kind="stable")
        assert (np.diff(w[order]) <= 0).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            selection_weights([])

    @pytest.mark.parametrize("costs, match", [
        ([0.5, 0.9], "non-integral"),
        ([2**64, 1], "integers"),
        ([2**63, 1], "64-bit"),
        ([-1, 2], "negative"),
        ([[1, 2], [3, 4]], "1-D"),
        (7, "1-D"),
        (["1", "2"], "integers"),
    ])
    def test_rejects_costs_that_are_not_int64_integers_in_1d(self, costs, match):
        with pytest.raises(ValueError, match=match):
            selection_weights(costs)

    def test_roulette_single_element(self):
        c = Chromosome(np.array([0]), 0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert roulette_select([c], np.array([1.0]), rng) is c

    def test_roulette_degenerate_wheel(self):
        pop = [Chromosome(np.array([0, 1]), 1),
               Chromosome(np.array([1, 0]), 2),
               Chromosome(np.array([0, 1]), 3)]
        rng = np.random.default_rng(4)
        for _ in range(100):
            assert roulette_select(pop, np.array([1.0, 0.0, 0.0]), rng) is pop[0]

    def test_roulette_frequencies(self):
        pop = [Chromosome(np.array([0, 1]), 10), Chromosome(np.array([1, 0]), 30)]
        w = selection_weights([10, 30])
        rng = np.random.default_rng(5)
        first = sum(roulette_select(pop, w, rng) is pop[0] for _ in range(100_000))
        assert abs(first - 75_000) <= 1000

    @pytest.mark.parametrize("weights, share", [
        ([1.0, 1.0], 0.5), ([0.25, 0.25], 0.5), ([3.0, 1.0], 0.75), ([10.0, 30.0], 0.25),
        ([1e308, 1e308], 0.5),
    ])
    def test_roulette_frequencies_with_unnormalised_weights(self, weights, share):
        pop = [Chromosome(np.array([0, 1]), 1), Chromosome(np.array([1, 0]), 2)]
        rng = np.random.default_rng(6)
        first = sum(roulette_select(pop, np.array(weights), rng) is pop[0] for _ in range(20_000))
        assert abs(first - 20_000 * share) <= 400

    @pytest.mark.parametrize("weights", [
        [-1.0, 2.0], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf],
    ])
    def test_roulette_rejects_bad_weights(self, weights):
        pop = [Chromosome(np.array([0, 1]), 1), Chromosome(np.array([1, 0]), 2)]
        with pytest.raises(ValueError, match="finite and non-negative, and not all zero"):
            roulette_select(pop, np.array(weights), np.random.default_rng(0))

    def test_roulette_rejects_mismatch(self):
        pop = [Chromosome(np.array([0, 1]), 1)]
        with pytest.raises(ValueError):
            roulette_select(pop, np.array([0.5, 0.5]), np.random.default_rng(0))


class TestEvolveStep:
    def test_all_operators_disabled_copies_existing_members(self):
        # with elitism at its maximum (population_size - 1) and both operators
        # off, every next-generation member is a verbatim copy of a current one
        rng = np.random.default_rng(31)
        inst = random_instance(6, 10, rng=rng)
        cfg = GaConfig(population_size=10, crossover_rate=0.0, mutation_rate=0.0,
                       elitism_count=9)
        perms, costs = init_population(inst, 10, rng)
        nxt_perms, nxt_costs, _, _ = evolve_step(inst, perms, costs, cfg, rng)
        current = {tuple(p.tolist()) for p in perms}
        assert len(nxt_perms) == 10
        assert all(tuple(p.tolist()) in current for p in nxt_perms)
        from collections import Counter
        elite = Counter(sorted(costs.tolist())[:9])
        have = Counter(nxt_costs.tolist())
        assert all(have[cost] >= cnt for cost, cnt in elite.items())

    def test_elitism_keeps_best(self):
        rng = np.random.default_rng(32)
        inst = random_instance(7, 10, rng=rng)
        cfg = GaConfig(population_size=20, elitism_count=1)
        perms, costs = init_population(inst, 20, rng)
        for _ in range(30):
            best_before = min(costs)
            perms, costs, _, _ = evolve_step(inst, perms, costs, cfg, rng)
            assert min(costs) <= best_before

    def test_costs_stay_consistent(self):
        rng = np.random.default_rng(33)
        inst = random_instance(6, 15, rng=rng)
        cfg = GaConfig(population_size=30)
        perms, costs = init_population(inst, 30, rng)
        for _ in range(20):
            perms, costs, _, _ = evolve_step(inst, perms, costs, cfg, rng)
            for perm, cost in zip(perms, costs):
                check_permutation(perm, inst.n)
                assert cost == evaluate_cost(inst, perm)

    def test_mutated_copy_past_int64_raises(self):
        inst = overflow_on_swap()
        perms = np.array([[0, 1], [0, 1]])
        costs = np.full(2, 2**31 + 2**33, np.int64)
        cfg = GaConfig(population_size=2, crossover_rate=0.0, mutation_rate=1.0)
        with pytest.raises(CostOverflowError):
            evolve_step(inst, perms, costs, cfg, np.random.default_rng(0))

    def test_rejects_wrong_population_size(self):
        rng = np.random.default_rng(34)
        inst = random_instance(4, 5, rng=rng)
        perms, costs = init_population(inst, 10, rng)
        with pytest.raises(ValueError):
            evolve_step(inst, perms, costs, GaConfig(population_size=12), rng)

    @pytest.mark.parametrize("width, perms_dtype, costs_shape, costs_dtype", [
        (7, np.int64, (10,), np.int64),  # a row one gene too wide
        (5, np.int64, (10,), np.int64),  # a row one gene short
        (6, np.float64, (10,), np.int64),
        (6, np.int64, (10,), np.float64),
        (6, np.int64, (10,), np.int32),
        (6, np.int64, (10, 1), np.int64),
        (6, np.int64, (9,), np.int64),
    ])
    def test_rejects_a_wrong_shape_or_dtype(self, width, perms_dtype, costs_shape, costs_dtype):
        rng = np.random.default_rng(37)
        inst = random_instance(6, 10, rng=rng)
        perms = np.stack([rng.permutation(width) for _ in range(10)]).astype(perms_dtype)
        costs = np.resize(np.arange(100, 110), costs_shape).astype(costs_dtype)
        expected = (f"expected int64 perms (10, 6) and int64 costs (10,), got {perms.dtype} perms "
                    f"{perms.shape} and {costs.dtype} costs {costs.shape}")
        with pytest.raises(ValueError, match=re.escape(expected)):
            evolve_step(inst, perms, costs, GaConfig(population_size=10), rng)

    def test_a_broken_elite_row_is_refused(self):
        # the elite pass through the gather untouched, so the check must cover them
        inst = random_instance(5, 10, rng=np.random.default_rng(39))
        perms = np.array([[0, 0, 1, 2, 7]] + [[0, 1, 2, 3, 4]] * 3)
        costs = np.array([99, 100, 100, 100])
        cfg = GaConfig(population_size=4, elitism_count=3, crossover_rate=0.0, mutation_rate=1.0)
        with pytest.raises(AssertionError, match=re.escape(BROKEN_CHILD)):
            evolve_step(inst, perms, costs, cfg, np.random.default_rng(0))

    def test_mutated_copies_are_checked_before_their_swap_deltas(self, monkeypatch):
        # each input row repeats a gene, so every mutated copy does too
        import qapga.ga as ga
        calls = []
        for name in ("_swap_deltas", "_costs"):
            def spying(*args, _real=getattr(ga, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(ga, name, spying)
        rng = np.random.default_rng(40)
        inst = random_instance(6, 10, rng=rng)
        perms = np.stack([rng.permutation(6) for _ in range(10)])
        perms[:, 1] = perms[:, 0]
        cfg = GaConfig(population_size=10, crossover_rate=0.0, mutation_rate=1.0)
        with pytest.raises(AssertionError, match=re.escape(BROKEN_CHILD)):
            evolve_step(inst, perms, np.arange(100, 110), cfg, rng)
        assert calls == []

    def test_runs_the_module_operators(self, monkeypatch):
        # evolve_step looks its operators up as module globals, so the tested
        # kernels are the ones a generation runs
        import qapga.ga as ga
        calls = {"order_crossover_two_point": 0, "selection_weights": 0,
                 "_pick": 0, "_swap_positions": 0}
        for name in calls:
            real = getattr(ga, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(ga, name, counting)
        rng = np.random.default_rng(35)
        inst = random_instance(6, 10, rng=rng)
        perms, costs = init_population(inst, 20, rng)
        evolve_step(inst, perms, costs, GaConfig(population_size=20), rng)
        assert all(v == 1 for v in calls.values()), calls
        no_cx = GaConfig(population_size=20, crossover_rate=0.0)
        evolve_step(inst, perms, costs, no_cx, rng)
        assert calls["order_crossover_two_point"] == 1

    def test_a_broken_child_is_refused_before_it_is_priced(self, monkeypatch):
        # _costs inverts a row by a scatter, so a non-bijective row would leave
        # cells unset for its next take to read
        import qapga.ga as ga
        error, priced = step_with_a_duplicated_gene(partial(monkeypatch.setattr, ga))
        assert str(error) == BROKEN_CHILD and priced == []

    def test_the_check_holds_under_python_O(self):
        # a plain assert would be stripped by -O; the check raises explicitly
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(qapga.__file__))
        code = ("import sys, qapga.ga, test_ga; error, priced = test_ga.step_with_a_duplicated_gene("
                "lambda name, value: setattr(qapga.ga, name, value)); "
                "print(sys.flags.optimize, priced, error, sep='|')")
        out = subprocess.run([sys.executable, "-O", "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join((src, tests))})
        assert out.stdout.strip() == f"1|[]|{BROKEN_CHILD}"


def step_with_a_duplicated_gene(patch):
    """One evolve_step whose crossover sets gene 1 of every first child to its gene 0,
    with patch(name, value) replacing qapga.ga globals and _costs spied on; returns
    the AssertionError it raised and the batch sizes _costs was called with."""
    import qapga.ga as ga
    rng = np.random.default_rng(38)
    inst = random_instance(12, 10, rng=rng)
    perms, costs = init_population(inst, 20, rng)
    real_cx, real_costs, priced = ga.order_crossover_two_point, ga._costs, []

    def duplicating(*args):
        c1, c2 = real_cx(*args)
        c1[:, 1] = c1[:, 0]
        return c1, c2

    def spying(inst, perms):
        priced.append(len(perms))
        return real_costs(inst, perms)
    patch("order_crossover_two_point", duplicating)
    patch("_costs", spying)
    cfg = GaConfig(population_size=20, crossover_rate=1.0, mutation_rate=0.0)
    with pytest.raises(AssertionError) as raised:
        evolve_step(inst, perms, costs, cfg, rng)
    return raised.value, priced


BROKEN_CHILD = "evolve_step: a row of the next population is not a permutation of 0..n-1"


def overflow_on_swap():
    """n=2 instance: [0, 1] costs 2**31 + 2**33, the swapped [1, 0] costs 2**64 + 1."""
    return Instance("over", 2, np.array([[0, 2**31], [1, 0]]), np.array([[0, 1], [2**33, 0]]))


class TestRun:
    def test_n1_trivial(self):
        inst = Instance("one", 1, np.array([[3]], np.int64), np.array([[7]], np.int64))
        res = run(inst, GaConfig(population_size=2, max_generations=5, target_cost=21))
        assert res.best.cost == 21
        assert res.generations_run == 0

    def test_zero_time_limit_returns_initial_best(self):
        rng = np.random.default_rng(41)
        inst = random_instance(8, 20, rng=rng)
        res = run(inst, GaConfig(max_generations=100, time_limit_s=0.0, rng_seed=9))
        assert res.generations_run == 0
        assert len(res.history) == 1
        assert res.best.cost == res.history[0]

    @pytest.mark.parametrize("limit", [float("nan"), -1.0, float("-inf")])
    def test_rejects_nan_and_negative_time_limit(self, limit):
        with pytest.raises(ValueError, match="time_limit_s"):
            GaConfig(time_limit_s=limit)

    def test_swap_past_int64_raises(self):
        # seed 0 draws [0, 1] twice, so the overflow comes from a mutated copy
        cfg = GaConfig(population_size=2, crossover_rate=0.0, mutation_rate=1.0, rng_seed=0)
        with pytest.raises(CostOverflowError):
            run(overflow_on_swap(), cfg)

    def test_history_non_increasing_best_tracked(self):
        rng = np.random.default_rng(42)
        inst = random_instance(8, 20, rng=rng)
        res = run(inst, GaConfig(max_generations=200, rng_seed=3))
        assert all(a >= b for a, b in zip(res.history, res.history[1:]))
        assert res.best.cost == min(res.history)

    def test_determinism_identical_runs(self):
        rng = np.random.default_rng(43)
        inst = random_instance(9, 25, rng=rng)
        cfg = GaConfig(max_generations=150, rng_seed=1234)
        assert run(inst, cfg) == run(inst, cfg)

    def test_finds_optimum_on_small_instance(self):
        rng = np.random.default_rng(44)
        inst = random_instance(6, 20, rng=rng, zero_diagonal=True)
        opt = exhaustive_optimum(inst).optimum
        best = min(
            run(inst, GaConfig(max_generations=300, target_cost=opt, rng_seed=s)).best.cost
            for s in range(10)
        )
        assert best == opt

    def test_target_cost_stops_early(self):
        rng = np.random.default_rng(45)
        inst = random_instance(7, 20, rng=rng)
        res = run(inst, GaConfig(max_generations=5000, target_cost=10**9, rng_seed=0))
        assert res.generations_run == 0


class TestConfigFields:
    @pytest.mark.parametrize("name, value", [
        ("population_size", 3.5), ("population_size", 4.0), ("population_size", None),
        ("max_generations", 2.5), ("elitism_count", True), ("target_cost", 578.0),
        ("rng_seed", "7"), ("rng_seed", None),
    ])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GaConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("crossover_rate", None), ("mutation_rate", True), ("time_limit_s", "1"),
    ])
    def test_float_fields_reject_non_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            GaConfig(**{name: value})

    def test_integer_fields_accept_numpy_integers(self):
        cfg = GaConfig(population_size=np.int64(4), max_generations=np.int32(2),
                       rng_seed=np.uint32(7))
        assert run(random_instance(4, 9, rng=np.random.default_rng(0)), cfg).generations_run == 2

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            GaConfig(rng_seed=-1)
        assert GaConfig(rng_seed=0).rng_seed == 0


class TestConfigRanges:
    # the message for a value just outside each field's range, in field order
    MESSAGES = {
        "population_size": "population_size must be >= 2",
        "crossover_rate": "crossover_rate must be in [0, 1]",
        "mutation_rate": "mutation_rate must be in [0, 1]",
        "max_generations": "max_generations must be >= 1",
        "target_cost": "target_cost must be None or >= 0",
        "time_limit_s": "time_limit_s must be None or >= 0",
        "elitism_count": "elitism_count must be >= 0",
        "rng_seed": "rng_seed must be >= 0",
    }

    def test_every_row_holds_flag_help_and_range(self):
        assert [f.name for f in fields(GaConfig)] == list(self.MESSAGES)
        for f in fields(GaConfig):
            assert set(f.metadata) == {"flag", "help", "range"}, f.name
            low, high = f.metadata["range"]
            assert high is None or low < high, f.name

    @pytest.mark.parametrize("f", fields(GaConfig), ids=lambda f: f.name)
    def test_bounds_are_accepted_and_values_past_them_refused(self, f):
        low, high = f.metadata["range"]
        kind = _CONFIG_FIELDS[f.name]
        below = low - 1 if kind is int else math.nextafter(low, -math.inf)
        above = None if high is None else high + 1 if kind is int else math.nextafter(high, math.inf)
        for bound in (low, high):
            if bound is not None:
                assert getattr(GaConfig(**{f.name: kind(bound)}), f.name) == bound
        for value in (below, above):
            if value is not None:
                with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGES[f.name])}$"):
                    GaConfig(**{f.name: value})

    def test_elitism_stays_below_population_size(self):
        assert GaConfig(population_size=4, elitism_count=3).elitism_count == 3
        with pytest.raises(ValueError, match=re.escape("elitism_count must be in [0, population_size)")):
            GaConfig(population_size=4, elitism_count=4)


class TestConfigText:
    def test_round_trip(self):
        from qapga import config_from_text, config_to_text
        cfg = GaConfig(population_size=40, crossover_rate=0.7, mutation_rate=0.1,
                       max_generations=500, target_cost=578, time_limit_s=2.5,
                       elitism_count=2, rng_seed=99)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_comments_blanks_and_none(self):
        from qapga import config_from_text
        cfg = config_from_text(
            "# tuned for small instances\n"
            "population_size = 10\n"
            "\n"
            "target_cost = none  # disabled\n"
        )
        assert cfg.population_size == 10
        assert cfg.target_cost is None
        assert cfg.crossover_rate == GaConfig().crossover_rate

    def test_unknown_key_rejected(self):
        from qapga import config_from_text
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_text("popsize = 10\n")

    def test_bad_value_rejected(self):
        from qapga import config_from_text
        with pytest.raises(ValueError, match="bad value"):
            config_from_text("population_size = many\n")

    def test_repeated_key_names_both_lines(self):
        from qapga import config_from_text
        with pytest.raises(ValueError, match="line 3: population_size is already set on line 1"):
            config_from_text("population_size = 10\nrng_seed = 1\npopulation_size = 20\n")

    @pytest.mark.parametrize("key, value", [
        ("population_size", "1_0"), ("rng_seed", "٣"), ("max_generations", "+5"),
        ("crossover_rate", "1_0.5"), ("crossover_rate", "0_0.5"), ("time_limit_s", "١.5"),
    ])
    def test_malformed_numbers_name_the_line(self, key, value):
        from qapga import config_from_text
        with pytest.raises(ValueError, match=f"line 2: bad value {re.escape(repr(value))} for {key}"):
            config_from_text(f"# header\n{key} = {value}\n")


class TestEvolveStepEvaluations:
    @pytest.mark.parametrize("cx_rate, full_calls", [(0.0, 0), (1.0, 1)])
    def test_full_evaluation_only_when_a_pair_crosses(self, monkeypatch, cx_rate, full_calls):
        import qapga.ga as ga
        real, calls = ga._costs, []

        def counting(inst, perms):
            calls.append(len(perms))
            return real(inst, perms)
        monkeypatch.setattr(ga, "_costs", counting)
        rng = np.random.default_rng(36)
        inst = random_instance(8, 10, rng=rng)
        cfg = GaConfig(population_size=20, crossover_rate=cx_rate, mutation_rate=1.0)
        perms, costs = init_population(inst, 20, rng)
        perms, costs, full, delta = evolve_step(inst, perms, costs, cfg, rng)
        assert calls == [20] + [20] * full_calls  # init_population, then the children
        # 10 pairs: 20 children priced, all in full or all by delta
        assert (full, delta) == (20 * full_calls, 20 - 20 * full_calls)
        assert costs.tolist() == [evaluate_cost(inst, p) for p in perms]


class TestEvaluationSplit:
    def test_swap_only_run_counts_the_initial_population_as_its_full_evaluations(self):
        inst = random_instance(8, 10, rng=np.random.default_rng(37))
        cfg = GaConfig(population_size=20, crossover_rate=0.0, mutation_rate=1.0,
                       max_generations=15, rng_seed=5)
        res = run(inst, cfg)
        assert res.full_evaluations == cfg.population_size
        # every child of the ceil(19 / 2) = 10 pairs is a mutated verbatim
        # copy, priced by one delta (the odd one out is priced, then dropped)
        assert res.delta_evaluations == 15 * 20
        assert res.evaluations == res.full_evaluations + res.delta_evaluations
        d = res.to_dict()
        assert (d["full_evaluations"], d["delta_evaluations"], d["evaluations"]) == (
            res.full_evaluations, res.delta_evaluations, res.evaluations)

    def test_crossing_run_counts_every_crossed_child_as_full(self):
        # rate 1: every pair crosses, so each generation fully prices all
        # 2 * ceil(19 / 2) = 20 children, and mutation prices none by delta
        inst = random_instance(8, 10, rng=np.random.default_rng(38))
        cfg = GaConfig(population_size=20, crossover_rate=1.0, mutation_rate=1.0,
                       max_generations=7, rng_seed=6)
        res = run(inst, cfg)
        assert (res.full_evaluations, res.delta_evaluations) == (20 + 7 * 20, 0)


class TestSelectionWeightsFloatEdge:
    def test_costs_past_2_52_can_share_a_weight(self):
        # the documented edge: 2**62 + 5 - 0 and 2**62 + 5 - 1 round to one float64
        w = selection_weights([0, 1, 2**62 + 5])
        assert w[0] == w[1] > w[2] > 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**52 - 1), min_size=2, max_size=60, unique=True))
    def test_strictly_decreasing_below_2_52(self, costs):
        w = selection_weights(costs)
        assert (np.diff(w[np.argsort(costs)]) < 0).all()
