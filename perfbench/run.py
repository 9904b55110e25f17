"""qapga benchmark: time-to-target on nug12, n=100 GA throughput on the
crossover and swap-delta paths, and the n=9 exhaustive oracle.

    python3 perfbench/run.py --workload nug12-target --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; the program is imported from ``src/``.
Load is a closed loop from one process: one solve call at a time, jobs=1.
Runs are capped by generations, never by time, so every work counter is
deterministic and must repeat exactly between repetitions of a solve.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see spans.py).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  Exit
code 0 means every output passed its correctness check, 1 that one did not,
2 that the program or its data could not be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

sys.dont_write_bytecode = True  # write no .pyc files into the checkout

import numpy as np  # noqa: E402

import spans  # noqa: E402  (sibling module)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SRC = ROOT / "src"
NUG12 = ROOT / "data" / "qaplib" / "nug12.dat"
BASELINES = ROOT / "data" / "baselines.csv"

# No solve is started that would end later than this many seconds into the
# run, so a run ends inside three minutes even on a much slower machine.
DEADLINE_S = 150.0
# generated instances: random_instance(n, MAX_ENTRY)
MAX_ENTRY = 100
# size of the instance the oracle probe enumerates on the GA workloads
PROBE_ORACLE_N = 7


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  kind selects the solve call:
    suite -> run_suite, ga -> run, oracle -> exhaustive_optimum."""

    name: str
    kind: str
    n: int = 0  # size of the generated instance (kinds ga and oracle)
    ga: dict = field(default_factory=dict)  # GaConfig overrides
    ga_seeds: tuple = ()  # GA seeds of the suite; the others use --seed
    min_units: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        # why each was chosen: BENCHMARK.json and README.md
        Workload("nug12-target", "suite", ga={"max_generations": 3800},
                 ga_seeds=(1, 2, 3)),
        Workload("rand100-cx", "ga", n=100, ga={"max_generations": 300},
                 min_units=3),
        Workload("rand100-swap", "ga", n=100,
                 ga={"max_generations": 300, "crossover_rate": 0.0,
                     "mutation_rate": 1.0},
                 min_units=3),
        Workload("oracle-n9", "oracle", n=9),
    )
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "gens_per_s": "1/s",
    "time_to_target_s": "s",
    "target_hit_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "instance.parse_qaplib.ms": "ms",
    "instance.parse_qaplib.tokens": "count",
    "instance.evaluate_cost.us": "us",
    "instance.swap_delta.us": "us",
    "instance.eval_cells_per_gen.computed": "count",
    "instance.eval_bytes_per_gen.computed": "B",
    "ga.init_population.ms": "ms",
    "ga.evolve_step.us": "us",
    "ga.evolve_step.tail_us": "us",
    "ga.evolve_step.tail_pct": "pct",
    "ga.evolve_step.self_us": "us",
    "ga.order_crossover_two_point.us": "us",
    "ga.order_crossover_two_point.calls_per_gen": "count",
    "ga.selection_weights.us": "us",
    "ga.evals_per_gen": "count",
    "ga.full_evals_per_gen": "count",
    "ga.delta_evals_per_gen": "count",
    "ga.useful_child_frac": "frac",
    "oracle.exhaustive_optimum.s": "s",
    "oracle.explored": "count",
    "oracle.us_per_perm": "us",
    "bench.run_suite.s": "s",
    "bench.run.s": "s",
    "bench.overhead_s": "s",
    "trace_overhead_frac": "frac",
}


class LoadError(Exception):
    """The program or its data is missing from the checkout."""


def load_program():
    """Import qapga from src/; LoadError if the checkout does not hold it."""
    if not (SRC / "qapga" / "__init__.py").is_file():
        raise LoadError(f"no qapga package under {SRC}")
    for path in (NUG12, BASELINES):
        if not path.is_file():
            raise LoadError(f"missing data file {path}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qapga  # noqa: F401  (binds the submodules used below)
    import qapga.bench
    import qapga.ga
    import qapga.instance
    import qapga.oracle

    return qapga


# --------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when correct


def _is_bijection(perm, n) -> bool:
    perm = np.asarray(perm)
    return perm.shape == (n,) and bool((np.sort(perm) == np.arange(n)).all())


def check_ga_result(q, inst, res, floor=None) -> list[str]:
    problems = []
    if not _is_bijection(res.best.perm, inst.n):
        problems.append("best.perm is not a bijection")
    elif q.evaluate_cost(inst, res.best.perm) != res.best.cost:
        problems.append("evaluate_cost(best.perm) != best.cost")
    hist = list(res.history)
    if any(b > a for a, b in zip(hist, hist[1:])):
        problems.append("history increases")
    if not hist or hist[-1] != res.best.cost:
        problems.append("history does not end at best.cost")
    if len(hist) != res.generations_run + 1:
        problems.append("history length != generations_run + 1")
    if floor is not None and res.best.cost < floor:
        problems.append(f"best cost {res.best.cost} is below the best known {floor}")
    return problems


def check_suite(q, inst, rows, results, seeds, best_known) -> list[str]:
    problems = []
    if len(results) != len(seeds):
        return [f"{len(results)} runs for {len(seeds)} seeds"]
    for seed, res in zip(seeds, results):
        problems += [f"seed {seed}: {p}" for p in check_ga_result(q, inst, res, best_known)]
    if len(rows) != 1:
        return problems + [f"{len(rows)} report rows for one instance"]
    row = rows[0]
    best = min(r.best.cost for r in results)
    if row.best_found != best:
        problems.append("row.best_found is not the best of the seeds")
    if row.generations != sum(r.generations_run for r in results):
        problems.append("row.generations is not the sum over seeds")
    if row.gap != q.compute_gap(best, best_known):
        problems.append("row.gap != compute_gap(best_found, best_known)")
    return problems


def check_oracle(q, inst, res) -> list[str]:
    if not _is_bijection(res.argmin, inst.n):
        return ["argmin is not a bijection"]
    problems = []
    if q.evaluate_cost(inst, res.argmin) != res.optimum:
        problems.append("evaluate_cost(argmin) != optimum")
    if res.explored != math.factorial(inst.n):
        problems.append(f"explored {res.explored} != {inst.n}!")
    return problems


# --------------------------------------------------------------------------
# one solve call ("unit") and its deterministic work counters


@dataclass
class Unit:
    wall_s: float
    results: list  # GaResult per GA run, or the OracleResult
    problems: list[str]
    counters: dict
    traced: bool = False


def _history_digest(hist) -> str:
    return hashlib.sha256(",".join(map(str, hist)).encode()).hexdigest()[:16]


def _ga_counters(res) -> dict:
    return {
        "best_cost": res.best.cost,
        "generations_run": res.generations_run,
        "evaluations": res.evaluations,
        "history": _history_digest(res.history),
    }


class Bench:
    """Inputs, set-up and solve calls of one workload at one seed."""

    def __init__(self, q, workload: Workload, seed: int, work_dir: Path):
        self.q, self.w, self.seed = q, workload, seed
        cfg = q.GaConfig(**workload.ga)
        self.baselines = None
        self.best_known = None
        if workload.kind == "suite":
            self.path = NUG12
            self.inst_name = NUG12.stem
            self.baselines = q.bench.load_baselines(BASELINES.read_text())
            self.best_known = next(
                b.best_known for b in self.baselines
                if b.instance_name.lower() == self.inst_name
            )
            self.ga_seeds = list(workload.ga_seeds)
            self.generated = None
        else:
            # the workload seed fixes both the instance and the GA stream
            self.inst_name = f"{workload.name}-seed{seed}"
            self.generated = q.oracle.random_instance(
                workload.n, MAX_ENTRY,
                rng=np.random.default_rng(seed), name=self.inst_name,
            )
            self.path = work_dir / f"{self.inst_name}.dat"
            self.path.write_text(q.render_qaplib(self.generated))
            self.ga_seeds = [seed]
            cfg = replace(cfg, rng_seed=seed)
        self.cfg = cfg
        self.inst = None
        self.setup_times: list[float] = []

    # set-up: read the .dat file and parse it -----------------------------
    def setup_once(self):
        text = self.path.read_text()
        return self.q.instance.parse_qaplib(text, name=self.inst_name)

    def setup(self, budget_s=0.5, min_reps=5, max_reps=200) -> None:
        """Time set-up repeatedly; the samples collect in setup_times."""
        reps = 0
        began = time.perf_counter()
        while reps < max_reps and (
            reps < min_reps or time.perf_counter() - began < budget_s
        ):
            t0 = time.perf_counter()
            self.inst = self.setup_once()
            self.setup_times.append(time.perf_counter() - t0)
            reps += 1

    def setup_problems(self) -> list[str]:
        if self.generated is not None and self.inst != self.generated:
            return ["parse_qaplib(render_qaplib(inst)) != inst"]
        return []

    # solve calls, made through the module attributes the tracer wraps -----
    def solve(self, traced: bool = False) -> Unit:
        q, w = self.q, self.w
        if w.kind == "suite":
            results = []
            with spans.capture_results(q.bench, "run", results):
                t0 = time.perf_counter()
                rows = q.bench.run_suite(
                    [self.inst], self.baselines, self.cfg, self.ga_seeds, jobs=1
                )
                wall = time.perf_counter() - t0
            problems = check_suite(
                q, self.inst, rows, results, self.ga_seeds, self.best_known
            )
            counters = {
                "per_seed": [_ga_counters(r) for r in results],
                "best_found": rows[0].best_found if rows else None,
                "gap": rows[0].gap if rows else None,
            }
        elif w.kind == "ga":
            t0 = time.perf_counter()
            res = q.ga.run(self.inst, self.cfg)
            wall = time.perf_counter() - t0
            results = [res]
            problems = check_ga_result(q, self.inst, res)
            if res.generations_run != self.cfg.max_generations:
                problems.append("run stopped before max_generations")
            counters = _ga_counters(res)
        else:
            t0 = time.perf_counter()
            res = q.oracle.exhaustive_optimum(self.inst)
            wall = time.perf_counter() - t0
            results = [res]
            problems = check_oracle(q, self.inst, res)
            counters = {
                "optimum": res.optimum,
                "argmin": [int(x) for x in res.argmin],
                "explored": res.explored,
            }
        return Unit(wall, results, problems, counters, traced)

    def warm_up(self):
        """Touch every code path once so that lazy set-up is not timed."""
        q, inst = self.q, self.inst
        if self.w.kind == "oracle":
            m = min(6, inst.n)
            q.oracle.exhaustive_optimum(q.Instance(
                name=f"{inst.name}-warm-up", n=m,
                flow=inst.flow[:m, :m].copy(), dist=inst.dist[:m, :m].copy(),
            ))
        else:
            q.ga.run(inst, replace(self.cfg, max_generations=5, rng_seed=0))

    def generations(self, unit: Unit) -> int:
        return sum(r.generations_run for r in unit.results)

    def hit_seeds(self, unit: Unit) -> list:
        return [r for r in unit.results if r.best.cost <= self.best_known]


# --------------------------------------------------------------------------
# measurement loops


def trace_targets(q):
    """(module, attribute, span name): the names callers look up."""
    return [
        (q.bench, "run_suite", "bench.run_suite"),
        (q.bench, "run", "bench.run"),
        (q.ga, "run", "ga.run"),
        (q.ga, "init_population", "ga.init_population"),
        (q.ga, "evolve_step", "ga.evolve_step"),
        (q.ga, "order_crossover_two_point", "ga.order_crossover_two_point"),
        (q.ga, "selection_weights", "ga.selection_weights"),
        (q.oracle, "exhaustive_optimum", "oracle.exhaustive_optimum"),
    ]


def run_units(bench: Bench, seconds: float, trace: bool, tracer: spans.Tracer,
              started: float) -> list[Unit]:
    """Solve repeatedly for `seconds`.  With trace, alternate untraced and
    traced solves so both see the same machine conditions.  `started` is
    when the run began, for the deadline."""
    w = bench.w
    units: list[Unit] = []
    began = time.perf_counter()
    min_units = 2 * max(1, w.min_units // 2) if trace else w.min_units
    while True:
        traced = trace and len(units) % 2 == 1
        try:
            if traced:
                before = tracer.count("ga.order_crossover_two_point")
                with tracer.wrapped(trace_targets(bench.q)):
                    unit = bench.solve(traced=True)
                unit.counters["crossover_calls"] = (
                    tracer.count("ga.order_crossover_two_point") - before
                )
            else:
                unit = bench.solve()
        except Exception:  # a raising solve is a failed run; keep measuring
            traceback.print_exc(file=sys.stderr)
            unit = Unit(math.nan, [], ["solve raised"], {}, traced)
        units.append(unit)
        # machine speed can drift within a run, so set-up is sampled
        # between solves as well as before and after them
        bench.setup(budget_s=0.05, min_reps=1)
        now = time.perf_counter()
        last = 0.0 if math.isnan(unit.wall_s) else unit.wall_s
        if now - started + last > DEADLINE_S:
            break
        if trace and len(units) % 2 == 1:
            continue  # finish the pair
        # start no solve that would end well past `seconds`, so that a run
        # of long solves (nug12-target) takes about as long as the others
        if len(units) >= min_units and now - began + last / 2 >= seconds:
            break
    return units


def check_replay(units: list[Unit]) -> None:
    """Every repetition must reproduce the first one's work counters; the
    traced ones must also agree on the crossover calls they made."""
    done = [u for u in units if u.counters]

    def work(c):
        return {k: v for k, v in c.items() if k != "crossover_calls"}

    for u in done[1:]:
        if work(u.counters) != work(done[0].counters):
            u.problems.append("work counters differ from repetition 0")
    traced = [u for u in done if u.traced]
    for u in traced[1:]:
        if u.counters["crossover_calls"] != traced[0].counters["crossover_calls"]:
            u.problems.append("crossover calls differ between traced repetitions")


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def tail_percentile(samples: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0):
        if samples * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def _mean(values):
    return sum(values) / len(values) if values else math.nan


def end_to_end(bench: Bench, units: list[Unit]) -> dict:
    """Solve times are whole-run aggregates (total work over total time), not
    medians of solves: the machine's speed drifts over tens of seconds, and a
    median of a few solves follows whichever phase most of them fell in,
    while the total averages over every phase of the run."""
    ok = [u for u in units if not u.problems]
    walls = [u.wall_s for u in ok]
    if bench.w.kind == "oracle":
        steps = sum(u.results[0].explored for u in ok)
    else:
        steps = sum(bench.generations(u) for u in ok)
    if bench.w.kind == "suite":
        ttt = [r.wall_time_s for u in ok for r in bench.hit_seeds(u)]
        hit = len(bench.hit_seeds(ok[0])) / len(bench.ga_seeds) if ok else math.nan
    else:
        # no target: a solve "hits" when it ends at its stop condition,
        # which the checks require, so time to target is the solve time
        ttt = walls
        hit = 1.0 if ok else math.nan
    return {
        "setup_s": _median(bench.setup_times),
        "solve_s": _mean(walls),
        "gens_per_s": steps / sum(walls) if walls else math.nan,
        "time_to_target_s": _mean(ttt),
        "target_hit_frac": hit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def kernel_us(call, args_list, batches=7) -> float:
    """Median over batches of the mean per-call time, in microseconds."""
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for args in args_list:
            call(*args)
        per_call.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(per_call) * 1e6


def probe(bench: Bench, main: spans.Tracer) -> spans.Tracer:
    """Small traced calls for layers the workload's own solve does not use,
    so every per-layer time is measured on every workload."""
    q, inst = bench.q, bench.inst
    tracer = spans.Tracer()
    with tracer.wrapped(trace_targets(q)):
        if main.count("ga.evolve_step") == 0 or main.count("ga.order_crossover_two_point") == 0:
            q.ga.run(inst, q.GaConfig(max_generations=30, rng_seed=bench.seed))
        if main.count("oracle.exhaustive_optimum") == 0:
            small = q.oracle.random_instance(
                PROBE_ORACLE_N, MAX_ENTRY, rng=np.random.default_rng(bench.seed)
            )
            q.oracle.exhaustive_optimum(small)
        if main.count("bench.run_suite") == 0:
            q.bench.run_suite(
                [inst], [q.BaselineRecord(inst.name, 1, "probe")],
                q.GaConfig(max_generations=20), [bench.seed],
            )
    return tracer


def per_layer(bench: Bench, units: list[Unit], tracer: spans.Tracer) -> dict:
    q, inst, cfg = bench.q, bench.inst, bench.cfg
    n = inst.n
    extra = probe(bench, tracer)

    def source(name):
        return tracer if tracer.count(name) else extra

    def med(name, scale):
        return float(np.median(source(name).durations(name))) * scale

    rng = np.random.default_rng(bench.seed)
    perms = [rng.permutation(n) for _ in range(64)]
    costs = [q.evaluate_cost(inst, p) for p in perms]
    swaps = [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in perms]

    evolve = source("ga.evolve_step")
    steps = evolve.durations("ga.evolve_step")
    pct = tail_percentile(steps.size)
    suite_src = source("bench.run_suite")
    suites = suite_src.durations("bench.run_suite")
    overhead = suites - suite_src.child_time("bench.run_suite", "bench.run")
    oracle_src = source("oracle.exhaustive_optimum")
    oracle_s = med("oracle.exhaustive_optimum", 1.0)
    oracle_n = n if oracle_src is tracer else PROBE_ORACLE_N

    traced = [u for u in units if u.traced and not u.problems]
    untraced = [u for u in units if not u.traced and not u.problems]
    ga_results = [r for u in traced for r in u.results if bench.w.kind != "oracle"]
    gens = sum(r.generations_run for r in ga_results)
    evals = sum(r.evaluations - cfg.population_size for r in ga_results)
    cx_calls = tracer.count("ga.order_crossover_two_point")
    per_gen = (lambda x: x / gens) if gens else (lambda x: 0.0)
    full = per_gen(2 * cx_calls)
    kept = cfg.population_size - cfg.elitism_count
    explored = [u.results[0].explored for u in traced] if bench.w.kind == "oracle" else []

    return {
        "instance.parse_qaplib.ms": _median(bench.setup_times) * 1e3,
        "instance.parse_qaplib.tokens": 1 + 2 * n * n,
        "instance.evaluate_cost.us": kernel_us(
            q.evaluate_cost, [(inst, p) for p in perms]),
        "instance.swap_delta.us": kernel_us(
            q.swap_delta, [(inst, p, c, i, k) for p, c, (i, k) in zip(perms, costs, swaps)]),
        "instance.eval_cells_per_gen.computed": full * n * n,
        "instance.eval_bytes_per_gen.computed": full * n * n * 8,
        "ga.init_population.ms": med("ga.init_population", 1e3),
        "ga.evolve_step.us": float(np.median(steps)) * 1e6,
        "ga.evolve_step.tail_us": float(np.percentile(steps, pct)) * 1e6,
        "ga.evolve_step.tail_pct": pct,
        # printed, not emitted: it grows with the number of traced solves
        "samples": int(steps.size),
        "ga.evolve_step.self_us": float(np.median(evolve.self_times("ga.evolve_step"))) * 1e6,
        "ga.order_crossover_two_point.us": med("ga.order_crossover_two_point", 1e6),
        "ga.order_crossover_two_point.calls_per_gen": per_gen(cx_calls),
        "ga.selection_weights.us": med("ga.selection_weights", 1e6),
        "ga.evals_per_gen": per_gen(evals),
        "ga.full_evals_per_gen": full,
        "ga.delta_evals_per_gen": per_gen(evals) - full,
        # offspring kept / children made: children come in pairs
        "ga.useful_child_frac": kept / (2 * math.ceil(kept / 2)) if gens else 0.0,
        "oracle.exhaustive_optimum.s": oracle_s,
        "oracle.explored": explored[0] if explored else 0,
        "oracle.us_per_perm": oracle_s / math.factorial(oracle_n) * 1e6,
        "bench.run_suite.s": float(np.median(suites)),
        "bench.run.s": med("bench.run", 1.0),
        "bench.overhead_s": float(np.median(overhead)),
        "trace_overhead_frac": (
            _median([u.wall_s for u in traced]) / _median([u.wall_s for u in untraced]) - 1
        ),
    }


# --------------------------------------------------------------------------
# reporting


def environment(q) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qapga": q.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(q, workload: Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path) -> tuple[dict, list[Unit], dict]:
    """Run one workload: the result object printed as the last line, the
    solves it made, and every metric computed (some are only printed).
    Generated instances and the trace go to out_dir."""
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        bench = Bench(q, workload, seed, Path(tmp))
        bench.setup()
        bench.warm_up()
        tracer = spans.Tracer()
        units = run_units(bench, seconds, trace, tracer, started)
        bench.setup()
    check_replay(units)
    if bench.setup_problems():
        units.insert(0, Unit(math.nan, [], bench.setup_problems(), {}))
    attempted = sum(max(1, len(u.results)) for u in units)
    failed = sum(max(1, len(u.results)) for u in units if u.problems)

    if trace:
        metrics = per_layer(bench, units, tracer)
        tracer.save(out_dir / f"trace-{workload.name}-seed{seed}.npz")
        units_of = PER_LAYER
    else:
        metrics = end_to_end(bench, units)
        units_of = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in units_of},
    }, units, metrics


def report(workload: Workload, seed: int, result: dict, units: list[Unit],
           metrics: dict, env: dict):
    """Human-readable lines: environment, counters, problems, metrics."""
    print(f"# workload {workload.name} seed {seed}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# solves {len(units)} ({sum(u.traced for u in units)} traced), "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"error_frac {result['failed'] / result['attempted']:.4f}")
    if units and units[0].counters:
        print("# counters " + json.dumps(units[0].counters, sort_keys=True))
        if "gap" in units[0].counters:
            print(f"# best_gap {units[0].counters['gap']!r} (best of the seeds "
                  "against data/baselines.csv; not gated, 0 when a seed hits)")
    for i, u in enumerate(units):
        for p in u.problems:
            print(f"# FAILED solve {i}: {p}")
    if "samples" in metrics:
        print(f"# ga.evolve_step samples {metrics['samples']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=DEADLINE_S + 60,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name}: no result (exit {proc.returncode})")
            return 2
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        q = load_program()
    except (LoadError, ImportError) as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    result, units, metrics = measure(
        q, workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    report(workload, args.seed, result, units, metrics, environment(q))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
