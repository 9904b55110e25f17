"""Benchmark harness: run the GA over QAPLIB instances, compute gaps to
best-known values, and emit CSV/JSON reports.

Best-known values are external facts and ship as a CSV data file
(name,best_known,source); they are never embedded in code.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

from .ga import GaConfig, run
from .instance import Instance, QapError, _integer, read_number


class BenchError(QapError):
    pass


@dataclass(frozen=True)
class BaselineRecord:
    """A best-known cost: instance_name a str, best_known an integer >= 1
    (a numpy integer is stored as int)."""

    instance_name: str
    best_known: int
    source: str

    def __post_init__(self):
        if not isinstance(self.instance_name, str):
            raise ValueError(f"instance_name must be a str, got {self.instance_name!r}")
        object.__setattr__(self, "best_known", _integer("best_known", self.best_known, 1))


@dataclass
class BenchRow:
    instance_name: str
    seeds_run: int
    best_found: int
    best_known: int
    gap: float  # fraction, 6 decimal places
    generations: int  # summed over seeds
    total_time_s: float  # 3 decimal places
    per_seed_time_s: list = field(default_factory=list, compare=False)


def _csv_rows(text: str):
    """(line, row) for each CSV row of text, line being the row's last; a CSV
    syntax error, such as a field past csv's size limit, is a BenchError naming its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as e:
        raise BenchError(f"line {reader.line_num}: {e}") from None


def load_baselines(text: str) -> list[BaselineRecord]:
    """Parse the name,best_known,source CSV; duplicate names (case-insensitive)
    and non-positive values are errors."""
    rows = _csv_rows(text)
    _, header = next(rows, (0, None))
    if header is None:
        raise BenchError("baselines file is empty")
    if [h.strip().lower() for h in header] != ["name", "best_known", "source"]:
        raise BenchError(f"unexpected baselines header: {header}")
    records = []
    seen = set()
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != 3:
            raise BenchError(f"line {lineno}: expected 3 fields, got {len(row)}")
        name, value, source = (f.strip() for f in row)
        try:
            best_known = read_number(int, value)
        except ValueError:
            raise BenchError(f"line {lineno}: best_known {value!r} is not an integer") from None
        if best_known <= 0:
            raise BenchError(f"line {lineno}: best_known must be positive, got {best_known}")
        key = name.lower()
        if key in seen:
            raise BenchError(f"line {lineno}: duplicate instance name {name!r}")
        seen.add(key)
        records.append(BaselineRecord(name, best_known, source))
    return records


def compute_gap(best_found: int, best_known: int) -> float:
    """(best_found - best_known) / best_known, rounded to 6 dp.  Both must be integers,
    not bools, and best_found >= 0, else ValueError; best_known <= 0 is a BenchError."""
    best_found = _integer("best_found", best_found, 0)
    best_known = _integer("best_known", best_known)
    if best_known <= 0:
        raise BenchError(f"best_known must be positive, got {best_known}")
    return round((best_found - best_known) / best_known, 6)


def run_suite(
    instances: list[Instance],
    baselines: list[BaselineRecord],
    cfg: GaConfig,
    seeds: list[int],
    jobs: int = 1,
) -> list[BenchRow]:
    """Run the GA once per (instance, seed); aggregate best-of-seeds per row.

    The per-seed target cost defaults to the baseline best-known value so a
    run stops as soon as it matches it; an explicit cfg.target_cost wins.
    Every per-seed config is built, and so validated, before the first run.
    jobs, an integer >= 1 checked with the seeds, caps the worker processes;
    with one worker the runs stay in this process.
    Rows come back in input order regardless of execution order.
    """
    if not seeds:
        raise BenchError("seed list must be non-empty")
    jobs = _integer("jobs", jobs, 1)
    by_name = {b.instance_name.lower(): b for b in baselines}
    tasks = []
    for inst in instances:
        baseline = by_name.get(inst.name.lower())
        if baseline is None:
            raise BenchError(f"no baseline record for instance {inst.name!r}")
        inst_cfg = cfg if cfg.target_cost is not None else replace(
            cfg, target_cost=baseline.best_known
        )
        tasks += [(inst, replace(inst_cfg, rng_seed=seed)) for seed in seeds]

    workers = min(jobs, len(tasks))  # a forked pool starts all its workers at once
    if workers > 1:
        # imported here: the pool's modules add about 0.8 MB of resident memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, *zip(*tasks)))
    else:
        results = [run(inst, seed_cfg) for inst, seed_cfg in tasks]

    rows = []
    for idx, inst in enumerate(instances):
        per_seed = results[idx * len(seeds) : (idx + 1) * len(seeds)]
        best = min(r.best.cost for r in per_seed)
        times = [r.wall_time_s for r in per_seed]
        best_known = by_name[inst.name.lower()].best_known
        rows.append(
            BenchRow(inst.name, len(seeds), best, best_known, compute_gap(best, best_known),
                     sum(r.generations_run for r in per_seed),
                     round(sum(times), 3), [round(t, 3) for t in times])
        )
    return rows


REPORT_HEADER = ["instance", "seeds", "best_found", "best_known", "gap", "generations", "total_time_s"]


def emit_report(rows: list[BenchRow], format: str = "csv") -> str:
    """Deterministic report text; gap to 6 decimals, time to 3."""
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for r in rows:
            writer.writerow(
                [r.instance_name, r.seeds_run, r.best_found, r.best_known,
                 f"{r.gap:.6f}", r.generations, f"{r.total_time_s:.3f}"]
            )
        return out.getvalue()
    if format == "json":
        payload = [
            dict(zip(REPORT_HEADER, [r.instance_name, r.seeds_run, r.best_found, r.best_known,
                                     round(r.gap, 6), r.generations, round(r.total_time_s, 3)]),
                 per_seed_time_s=[round(t, 3) for t in r.per_seed_time_s])
            for r in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")
