"""dhac benchmark: campaign throughput, per-job latency and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign_rcc --seed 1 --seconds 50 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped. `--trace 1`
runs the workload's units untraced for half the time, then re-runs the same
units with every layer's public functions wrapped (see spans.py) and reports
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it repeat every metric with its unit and sample count, and
the machine facts; the same record, and in a traced run every span, is
written under .perfbench_out/.

The benchmark imports dhac from the checkout's src/ and exits non-zero,
without a result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import monotonic_ns, perf_counter

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
WORKLOADS = ("campaign_rcc", "client_jobs")

# name -> unit; what each means on each workload is in README.md
END_TO_END = {
    "trials_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# reported beside them on client_jobs, but not in the result line
INFORMATIONAL = {"fbc_job_p50_ms": "ms"}


def import_dhac() -> None:
    """Import dhac from this checkout's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "dhac", "__init__.py")):
        sys.exit(f"perfbench: no dhac package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dhac

    if not os.path.abspath(dhac.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported dhac from {dhac.__file__}, not from {SRC}")


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_for(workload, seconds: float) -> list:
    """Run units 0, 1, ... until `seconds` of wall time have passed (at least one)."""
    units = []
    deadline = perf_counter() + seconds
    while not units or perf_counter() < deadline:
        units.append(workload.unit(len(units)))
    return units


def probe_setup(args) -> list[float]:
    """Seconds from spawning a fresh process to its workload being prepared."""
    samples = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--size", args.size,
            "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = monotonic_ns()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append((int(done.stdout.split()[-1]) - t0) / 1e9)
    return samples


def check_digests(workload: str, seed: int, size: str, units: list) -> tuple[bool, str]:
    """Units must agree byte for byte, and with the recorded digest if there is one."""
    seen = {u.digest for u in units if u.digest is not None}
    if len(seen) > 1:
        return False, f"outputs differ between runs of the same unit: {sorted(seen)}"
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as f:
        recorded = json.load(f)["sha256"].get(size, {}).get(workload, {}).get(str(seed))
    got = seen.pop() if seen else None
    if recorded is None:
        return True, f"sha256 {got} (no digest recorded for seed {seed})"
    if got != recorded:
        return False, f"sha256 {got} != recorded {recorded}"
    return True, f"sha256 {got} matches the recorded digest"


def end_to_end(units: list, setup: list[float]) -> tuple[dict, dict]:
    """Every operation of the run counts: throughput over the whole run, and
    latency percentiles over every campaign or integer job."""
    jobs = [job for u in units for job in u.jobs]
    trials = sum(u.trials for u in units)
    # campaigns, or client_jobs' integer jobs
    latency = [x for stratum, x in jobs if stratum.split()[0] in ("campaign", "int")]
    metrics = {
        "trials_per_s": trials / sum(u.wall_s for u in units),
        "job_p50_ms": statistics.median(latency) * 1e3,
        "job_p90_ms": percentile(latency, 90) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(u.peak_rss_mb for u in units),
    }
    samples = {
        "trials_per_s": f"{trials} trials in {len(jobs)} operations",
        "job_p50_ms": f"{len(latency)} jobs",
        "job_p90_ms": f"{len(latency)} jobs",
        "setup_s": f"{len(setup)} processes",
        "peak_rss_mb": f"max of {len(units)} units",
    }
    floats = [x for stratum, x in jobs if stratum.startswith("float ")]
    if floats:  # client_jobs only; informational, not in the result line
        metrics["fbc_job_p50_ms"] = statistics.median(floats) * 1e3
        samples["fbc_job_p50_ms"] = f"{len(floats)} jobs"
    return metrics, samples


def traced(workload, seconds: float):
    untraced = run_for(workload, seconds / 2)
    rec = spans.Recorder()
    again = [workload.unit(k, rec) for k in range(len(untraced))]
    metrics = spans.layer_metrics(rec, sum(u.ops for u in again))
    base = statistics.median(u.wall_s for u in untraced)
    metrics["trace.overhead_frac"] = statistics.median(u.wall_s for u in again) / base - 1 if base else 0.0
    return untraced + again, metrics, rec


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload at a toy size, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--child-unit", type=int, help=argparse.SUPPRESS)
    p.add_argument("--child-out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure(args) -> tuple[dict, spans.Recorder | None]:
    """Prepare and run one workload; returns its record and, if traced, the spans."""
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    rec = None
    try:
        workload = workloads.make(args.workload, args.seed, args.size, workdir)
        if args.setup_probe:
            print(monotonic_ns(), flush=True)
            return {}, None
        if args.trace:
            units, metrics, rec = traced(workload, args.seconds)
            units_of = {name: spans.unit_of(name) for name in metrics}
            samples = {}
        else:
            units = run_for(workload, args.seconds)
            metrics, samples = end_to_end(units, probe_setup(args))
            units_of = {**END_TO_END, **INFORMATIONAL}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    digest_ok, digest_note = check_digests(args.workload, args.seed, args.size, units)
    if not digest_ok:
        failed = attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine_facts(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest": digest_note,
        "unit_wall_s": [u.wall_s for u in units],
        "operations": [u.jobs for u in units],
        "metrics": {k: {"value": v, "unit": units_of[k], "samples": samples.get(k)}
                    for k, v in metrics.items()},
    }
    stem = os.path.join(OUT, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if rec is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as f:
            json.dump(rec.to_dict(), f)
    return record, rec


def child(args) -> None:
    """Run one campaign in this process and write what it did to --child-out."""
    import workloads

    campaign = workloads.make(args.workload, args.seed, args.size, os.path.dirname(args.child_out))
    rec = spans.Recorder() if args.trace else None
    undo = [] if rec is None else spans.install(rec)
    try:
        done = campaign.run_here(args.child_unit, rec)
    finally:
        spans.uninstall(undo)
    with open(args.child_out, "w", encoding="utf-8") as f:
        json.dump(done, f)


def result_line(record: dict) -> dict:
    """The result line: end-to-end or per-layer metrics only, each with its unit."""
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in record["metrics"].items() if k not in INFORMATIONAL}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_dhac()
    if args.child_unit is not None:
        child(args)
        return 0
    record, _ = measure(args)
    if args.setup_probe:
        return 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("machine " + " ".join(f"{k}={v!r}" for k, v in record["machine"].items()))
    for name, m in record["metrics"].items():
        n = "" if m["samples"] is None else f"  (n={m['samples']})"
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}{n}")
    print(f"  {'failed_frac':<34} {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    print(f"  digest: {record['digest']}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
