"""Census benchmark: one command, three workloads, every metric by name.

Run from the repository root::

    python3 censusbench/run.py --workload haystack --seed 1 --seconds 35 --trace 0
    python3 censusbench/run.py --workload all --seed 1 --seconds 35 --trace 1
    python3 censusbench/run.py --write-benchmark-json

``--trace 0`` times the end-to-end metrics with the program's tracer,
metrics and events at their defaults (off).  ``--trace 1`` also runs
cycles with the benchmark's span hooks installed and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a human
readable table precedes it.  Results, provenance and (traced runs) the
span log are also written under ``.bench_work/results/``.
``--write-benchmark-json`` writes ``BENCHMARK.json`` at the repository
root from the tables below and in the two workload/layer modules.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: End-to-end metrics: name -> (unit, better, bound).  ``census_s`` is the
#: per-operation time of the workload's primary operation: a study run on
#: the study workloads, an incremental epoch (``epoch_s``) on
#: daily_service.  Why the bounds are what they are: README.md.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "census_s": ("s", "lower", 0.25),
    "restart_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "recall": ("ratio", "higher", 0.15),
    "sites_ratio": ("ratio", "higher", 0.25),
}
#: Seconds one benchmark run measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 35


def filesystem_of(path: pathlib.Path) -> str:
    """Type of the filesystem holding ``path``: its longest mount point."""
    path_s = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fp:
            for line in fp:
                _, mount, kind = line.split()[:3]
                inside = path_s == mount or path_s.startswith(mount.rstrip("/") + "/")
                # Later lines mount over earlier ones at the same point.
                if inside and len(mount) >= len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def provenance(work: pathlib.Path) -> dict:
    """Host and source record of one result (fields, not metrics)."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            # Never report the SHA of an enclosing repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_files = sorted(SRC.rglob("*.py"))
    source = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        source.update(data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "src_lines": lines,
        "archive_filesystem": filesystem_of(work),
    }


def median(values: List[float]) -> Optional[float]:
    return float(statistics.median(values)) if values else None


def end_to_end(run, primary: str) -> Dict[str, Optional[float]]:
    # restart_s is a mean, not a median: the host alternates between
    # speeds for seconds at a time, and the 20-50 restarts of a run, spread
    # over it, weigh each speed by the time the run spent in it, where
    # their median jumps with the speed that held most of them.
    restarts = run.samples["restart"]
    return {
        "setup_s": run.batched_median("setup"),
        "census_s": median(run.samples[primary]),
        "restart_s": statistics.fmean(restarts) if restarts else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recall": run.quality.get("recall"),
        "sites_ratio": run.quality.get("sites_ratio"),
    }


def per_layer(run, primary: str) -> dict:
    from census_layers import summarize

    summary = summarize(run.recorder, primary)
    traced, untraced = median(run.traced[primary]), median(run.samples[primary])
    overhead = traced - untraced if traced is not None and untraced else 0.0
    summary["metrics"]["trace.overhead_s"] = overhead
    summary["metrics"]["trace.overhead_ratio"] = overhead / untraced if untraced else 0.0
    return summary


def predictions(workload: str, shares: Dict[str, float]) -> List[dict]:
    """The share predictions of README.md, checked against the traced run."""
    analysis = shares["share.analysis_all"]
    if workload == "haystack":
        rows = [("analysis <= ~15% of census_s", analysis, analysis <= 0.15)]
    elif workload == "dense_vps":
        value = shares["share.trust"] + analysis
        rows = [("trust + analysis >= ~70% of census_s", value, value >= 0.70)]
    else:
        value = shares["share.archive"] + shares["share.internet"]
        rows = [(f"archive + world rebuild ({value:.3f}) > analysis ({analysis:.3f}) "
                 "of epoch_s", value - analysis, value > analysis)]
    return [{"prediction": p, "value": v, "holds": h} for p, v, h in rows]


def print_table(workload: str, e2e: Dict[str, Optional[float]], run) -> None:
    rate = run.failed / max(run.attempted, 1)
    rows = [("setup_s", e2e["setup_s"], "s", len(run.samples["setup"]))]
    if workload == "daily_service":
        rows.append(("epoch_s", e2e["census_s"], "s", len(run.samples["epoch"])))
    else:
        rows.append(("census_s", e2e["census_s"], "s", len(run.samples["census"])))
    rows += [
        ("restart_s", e2e["restart_s"], "s", len(run.samples["restart"])),
        # restart_s is a mean; the median is shown beside it.
        ("restart_med", median(run.samples["restart"]), "s", len(run.samples["restart"])),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", None),
        ("recall", e2e["recall"], "ratio", None),
        ("sites_ratio", e2e["sites_ratio"], "ratio", None),
        ("error_rate", rate, "ratio", run.attempted),
    ]
    print(f"== {workload} (seed {run.seed}) ==")
    for name, value, unit, n in rows:
        shown = "n/a" if value is None else f"{value:.4f}"
        note = "" if n is None else f"  (n={n})"
        print(f"  {name:<12} {shown:>12} {unit}{note}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from census_workloads import Run, primary_kind, run_workload

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run_workload(run)
        host = provenance(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    primary = primary_kind(args.workload)
    e2e = end_to_end(run, primary)
    print_table(args.workload, e2e, run)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "samples": run.samples, "sample_cycles": run.sample_cycles,
        "end_to_end": e2e,
        "checks": {name: all(oks) for name, oks in run.checks.items()},
        "failures": run.failures, "digests": run.digests,
        "attempted": run.attempted, "failed": run.failed,
    }
    for name, oks in sorted(run.checks.items()):
        print(f"  check {'ok  ' if all(oks) else 'FAIL'} {name} ({len(oks)}x)")
    print("  host " + " ".join(f"{k}={v}" for k, v in host.items()))

    if args.trace:
        summary = per_layer(run, primary)
        summary["predictions"] = predictions(args.workload, summary["metrics"])
        summary["absent_hooks"] = run.hooks.absent
        summary["observer_errors"] = run.hooks.observer_errors
        result["per_layer"] = summary
        for row in summary["predictions"]:
            verdict = "holds" if row["holds"] else "CONTRADICTED"
            print(f"  prediction {verdict}: {row['prediction']} ({row['value']:.3f})")
        for layer in summary["not_run"]:
            print(f"  layer not run here: {layer}")
        for target, reason in run.hooks.absent.items():
            print(f"  layer hook absent: {target} ({reason})")
        metrics = summary["metrics"]
        from census_layers import per_layer_units

        units = per_layer_units()
    else:
        metrics = e2e
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    if args.trace:
        run.recorder.write_jsonl(results_dir / f"{stem}.spans.jsonl")

    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        print(f"error: no value for {missing}: every operation failed", file=sys.stderr)
        return 1
    correct = run.failed == 0 and all(all(oks) for oks in run.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process (own peak RSS)."""
    from census_workloads import WORKLOADS

    combined: Dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            combined[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def write_benchmark_json() -> int:
    """Write BENCHMARK.json from the metric, workload and layer tables."""
    from census_layers import HIGHER_IS_BETTER, per_layer_units
    from census_workloads import WHY, WORKLOADS

    here = pathlib.Path(__file__).resolve().parent.relative_to(ROOT)
    spec = {
        "command": ["python3", str(here / "run.py")],
        "paths": [str(here)],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit,
             "better": "higher" if name in HIGHER_IS_BETTER else "lower"}
            for name, unit in per_layer_units().items()
        ],
    }
    # One line per key, and per entry in the lists of objects.
    lines = []
    for key, value in spec.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows = ",\n".join(f"    {json.dumps(row)}" for row in value)
            lines.append(f'  "{key}": [\n{rows}\n  ]')
        else:
            lines.append(f'  "{key}": {json.dumps(value)}')
    (ROOT / "BENCHMARK.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from census_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        return write_benchmark_json()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}; run from the repository root",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
