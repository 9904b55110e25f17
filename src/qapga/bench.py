"""Benchmark harness: run the GA over QAPLIB instances, compute gaps to
best-known values, and emit CSV/JSON reports.

Best-known values are external facts and ship as a CSV data file
(name,best_known,source); they are never embedded in code.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .ga import GaConfig, run
from .instance import Instance, QapError


class BenchError(QapError):
    pass


@dataclass(frozen=True)
class BaselineRecord:
    instance_name: str
    best_known: int
    source: str


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


def load_baselines(text: str) -> list[BaselineRecord]:
    """Parse the name,best_known,source CSV; duplicate names (case-insensitive)
    and non-positive values are errors."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise BenchError("baselines file is empty") from None
    if [h.strip().lower() for h in header] != ["name", "best_known", "source"]:
        raise BenchError(f"unexpected baselines header: {header}")
    records = []
    seen = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise BenchError(f"line {lineno}: expected 3 fields, got {len(row)}")
        name, value, source = (f.strip() for f in row)
        try:
            best_known = int(value)
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
    """(best_found - best_known) / best_known, exact rational rounded to 6 dp."""
    if best_known <= 0:
        raise BenchError(f"best_known must be positive, got {best_known}")
    return round(float(Fraction(best_found - best_known, best_known)), 6)


def _run_one(args):
    inst, cfg, seed = args
    result = run(inst, replace(cfg, rng_seed=seed))
    return result.best.cost, result.generations_run, result.wall_time_s


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
    Rows come back in input order regardless of execution order.
    """
    if not seeds:
        raise BenchError("seed list must be non-empty")
    by_name = {b.instance_name.lower(): b for b in baselines}
    tasks = []
    for inst in instances:
        baseline = by_name.get(inst.name.lower())
        if baseline is None:
            raise BenchError(f"no baseline record for instance {inst.name!r}")
        inst_cfg = cfg if cfg.target_cost is not None else replace(
            cfg, target_cost=baseline.best_known
        )
        for seed in seeds:
            tasks.append((inst, inst_cfg, seed))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_one, tasks))
    else:
        outcomes = [_run_one(t) for t in tasks]

    rows = []
    per_inst = len(seeds)
    for idx, inst in enumerate(instances):
        chunk = outcomes[idx * per_inst : (idx + 1) * per_inst]
        best_found = min(c[0] for c in chunk)
        baseline = by_name[inst.name.lower()]
        times = [round(c[2], 3) for c in chunk]
        rows.append(
            BenchRow(
                instance_name=inst.name,
                seeds_run=per_inst,
                best_found=best_found,
                best_known=baseline.best_known,
                gap=compute_gap(best_found, baseline.best_known),
                generations=sum(c[1] for c in chunk),
                total_time_s=round(sum(c[2] for c in chunk), 3),
                per_seed_time_s=times,
            )
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
            {
                "instance": r.instance_name,
                "seeds": r.seeds_run,
                "best_found": r.best_found,
                "best_known": r.best_known,
                "gap": round(r.gap, 6),
                "generations": r.generations,
                "total_time_s": round(r.total_time_s, 3),
                "per_seed_time_s": [round(t, 3) for t in r.per_seed_time_s],
            }
            for r in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def parse_report(text: str, format: str = "csv") -> list[BenchRow]:
    """Inverse of emit_report (per-seed times survive only in JSON)."""
    rows = []
    if format == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != REPORT_HEADER:
            raise BenchError(f"unexpected report header: {header}")
        for row in reader:
            if not row:
                continue
            try:
                rows.append(
                    BenchRow(row[0], int(row[1]), int(row[2]), int(row[3]),
                             float(row[4]), int(row[5]), float(row[6]))
                )
            except (IndexError, ValueError):
                raise BenchError(f"line {reader.line_num}: bad report row {row}") from None
        return rows
    if format == "json":
        for idx, d in enumerate(json.loads(text), start=1):
            try:
                rows.append(
                    BenchRow(d["instance"], d["seeds"], d["best_found"], d["best_known"],
                             d["gap"], d["generations"], d["total_time_s"],
                             d.get("per_seed_time_s", []))
                )
            except (KeyError, TypeError) as e:
                raise BenchError(f"record {idx}: missing or malformed field {e}") from None
        return rows
    raise ValueError(f"unknown report format {format!r}")
