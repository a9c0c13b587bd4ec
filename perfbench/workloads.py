"""The benchmark workloads and their correctness checks.

Each workload does its preparation in the constructor (that is the set-up
`setup_s` measures) and then runs numbered units of work. The same unit
number always does the same work, so a traced re-run of units 0..k-1
repeats the untraced run exactly.

- campaign_rcc: `run_bench` + `report_to_csv` over the residue half of the
  default config (6 int16 builtins x 9 unit combos, moduli 3,5,7). Integer
  lanes, residues and per-cell aggregation do the work.
- client_jobs: one client in a closed loop driving `dhac.cli.main`
  in-process with JSON files: integer jobs (`run`, then `rcc --claimed`)
  and a minority of float jobs (`run` of an instrumented conv_layer, then
  `fbc-judge`). Here the same layers run at n=1 through the scalar paths.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from itertools import product
from time import perf_counter

import numpy as np

import spans
from dhac import cli, graph, programs, scenario

RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
CHILD_TIMEOUT_S = 150
INT_PROGRAMS = ("fir", "conv2x2", "euler2", "euler3", "rk2", "rk3")
# scenario.default_combos() as `dhac run` flags, in the same order
COMBOS = tuple(product(("loa:4", "trunc_add:6", "seg_carry:4"), ("trunc_mul:4", "broken_array:4", "log_approx")))
FP_BITS = scenario.DEFAULT_FP_BITS


@dataclass(frozen=True)
class Size:
    rcc_trials: int
    conv_params: dict  # conv_layer builtin parameters; {} is the default 30.5k-node graph
    input_pool: int  # seeded input vectors per program


SIZES = {
    # 10^4 trials/cell lets per-trial lane work dominate the rcc campaign.
    "full": Size(rcc_trials=10_000, conv_params={}, input_pool=64),
    "tiny": Size(rcc_trials=20, conv_params={"channels": 2, "size": 6}, input_pool=2),
}


@dataclass
class Unit:
    """What one unit of work did: a campaign, or a block of client jobs."""

    wall_s: float
    ops: int  # operations: 1 campaign, or the jobs of a block
    trials: int  # trials judged
    failed: int
    jobs: list[tuple[str, float]]  # (stratum, latency) per operation; see Job.stratum
    digest: str | None = None  # sha256 of the unit's outputs (recorded for unit 0)
    peak_rss_mb: float = 0.0  # of the process that did the work, when it ended


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Campaign:
    """`run_bench` + `report_to_csv` over the residue half of the default config.

    Each unit runs in a fresh process, as `dhac bench` does, so one-time and
    first-call costs fall inside every campaign's time and a cache kept
    between campaigns gains nothing. The child times only `run_bench` +
    `report_to_csv`; its `import dhac` is start-up, as in `setup_s`.
    """

    def __init__(self, seed: int, size_name: str, workdir: str):
        size = SIZES[size_name]
        self.cfg = scenario.config_from_dict({"seed": seed, "trials": size.rcc_trials, "fbc": {"programs": []}})
        self.trials = self.cfg.trials * len(self.cfg.rcc_programs) * len(self.cfg.combos)
        self.dir = workdir
        self.argv = [sys.executable, RUNNER, "--workload", "campaign_rcc", "--seed", str(seed),
                     "--seconds", "1", "--size", size_name]

    def unit(self, k: int, rec: spans.Recorder | None = None) -> Unit:
        """Run campaign k in a child process; its spans go into `rec` when given."""
        out = os.path.join(self.dir, f"campaign-{k}.json")
        argv = [*self.argv, "--trace", str(int(rec is not None)), "--child-unit", str(k), "--child-out", out]
        t0 = perf_counter()
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            error = done.stderr if done.returncode != 0 else None
        except subprocess.TimeoutExpired:
            error = f"campaign {k} took over {CHILD_TIMEOUT_S} s\n"
        if error is not None:  # a crash is a failed campaign; the run goes on
            sys.stderr.write(error)
            wall = perf_counter() - t0
            return Unit(wall, 1, self.trials, 1, [("campaign", wall)])
        with open(out, encoding="utf-8") as f:
            got = json.load(f)
        os.remove(out)
        if rec is not None:
            rec.extend(got["spans"])
        wall = got["wall_s"]
        return Unit(wall, 1, self.trials, got["failed"], [("campaign", wall)], digest=got["digest"],
                    peak_rss_mb=got["peak_rss_mb"])

    def run_here(self, k: int, rec: spans.Recorder | None = None) -> dict:
        """Campaign k in this process, as a child reports it to `unit`."""
        if rec is not None:
            rec.run_id = k + 1
        t0 = perf_counter()
        try:
            csv = scenario.report_to_csv(scenario.run_bench(self.cfg, jobs=1))
        except Exception:  # reported as a failed campaign
            traceback.print_exc(file=sys.stderr)
            csv = ""
        wall = perf_counter() - t0
        return {"wall_s": wall, "failed": int(not honest_never_flagged(csv)), "digest": _sha(csv),
                "peak_rss_mb": peak_rss_mb(), "spans": None if rec is None else rec.to_dict()}


def honest_never_flagged(csv: str) -> bool:
    """True when the report has rows and every row has fp == 0."""
    lines = [ln for ln in csv.splitlines() if ln and not ln.startswith("#")]
    header = lines[1].split(",") if len(lines) > 1 else []  # lines[0] is the report version
    if "fp" not in header:
        return False
    fp = header.index("fp")
    rows = [ln.split(",") for ln in lines[2:]]
    return bool(rows) and all(len(r) == len(header) and r[fp] == "0" for r in rows)


@dataclass(frozen=True)
class Job:
    kind: str  # "int" or "float"
    program: str
    inputs: str
    flags: tuple[str, ...]  # backend flags; empty for an honest (exact) run

    @property
    def honest(self) -> bool:
        return not self.flags

    @property
    def stratum(self) -> str:
        """Jobs of one stratum do the same work on different inputs."""
        return " ".join((self.kind, os.path.basename(self.program), *self.flags))


class ClientJobs:
    """A closed loop with one client calling `dhac.cli.main` in-process.

    A block has the job mix of the default `dhac bench` config, which runs
    the same number of trials in each of its 56 cells: one integer job per
    (int builtin, adder/multiplier combo) cell and one float job per fp
    width, the float jobs at seeded positions. The server plays
    scenario.ServerStrategy's defaults over the client's whole job sequence,
    with its decision stream from `scenario.server_state(seed)`: the first
    10 jobs and jobs with an op census under 30 run exact, and every other
    job runs on its cell's approximate backend when its draw is below
    `dishonest_prob` (1.0).
    """

    def __init__(self, seed: int, size_name: str, workdir: str):
        self.seed = seed
        self.size = SIZES[size_name]
        self.dir = workdir
        self.strategy = scenario.ServerStrategy()
        rng = np.random.default_rng([seed, 0])
        self.int_inputs = {}
        self.census = {}
        for p in INT_PROGRAMS:
            spec = programs.builtin_spec(p)
            self.int_inputs[p] = self._pool(spec, rng, p)
            self.census[p] = graph.op_census(spec.graph)["total"]

        float_spec = programs.builtin_spec("conv_layer", **self.size.conv_params)
        self.float_inputs = self._pool(float_spec, rng, "conv_layer")
        if self.size.conv_params:
            source = self._path("conv_layer_program.json")
            with open(source, "w", encoding="utf-8") as f:
                f.write(graph.serialize_program(float_spec.graph))
        else:
            source = "conv_layer"
        self.instrumented = self._path("conv_layer_fbc.json")
        self.census[self.instrumented] = graph.op_census(float_spec.graph)["total"]
        rc, out = self._call(["fbc-instrument", "--program", source, "--seed", str(seed),
                              "--out", self.instrumented])
        if rc != 0:
            raise RuntimeError(f"fbc-instrument failed ({rc}): {out.strip()}")
        self.trace_path = self._path("trace.json")

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _pool(self, spec, rng, label: str) -> list[str]:
        cols = programs.draw_inputs(spec, rng, self.size.input_pool)
        paths = []
        for i in range(self.size.input_pool):
            path = self._path(f"in_{label}_{i}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump([c[i].item() for c in cols], f)
            paths.append(path)
        return paths

    def block(self, k: int) -> list[Job]:
        """The jobs of block k; a function of (seed, k) only."""
        rng = np.random.default_rng([self.seed, 1, k])
        per_int = len(INT_PROGRAMS) * len(COMBOS)
        cells = []
        for j in range(per_int):
            program = INT_PROGRAMS[j % len(INT_PROGRAMS)]
            adder, mul = COMBOS[j // len(INT_PROGRAMS)]
            pool = self.int_inputs[program]
            inputs = pool[(k * len(COMBOS) + j // len(INT_PROGRAMS)) % len(pool)]
            cells.append(("int", program, inputs, ("--adder", adder, "--multiplier", mul)))
        pool = self.float_inputs
        floats = [("float", self.instrumented, pool[rng.integers(len(pool))], ("--fp-bits", str(b)))
                  for b in FP_BITS]
        order = rng.permutation(len(floats))
        positions = sorted(rng.choice(per_int + len(floats), size=len(floats), replace=False))
        for pos, i in zip(positions, order):
            cells.insert(int(pos), floats[int(i)])
        # the server's job counter and decision draws run over the whole sequence
        first = k * len(cells)
        draws = scenario.server_state(self.seed).rng.uniform(size=first + len(cells))[first:]
        s = self.strategy
        jobs = []
        for index, (kind, program, inputs, flags), draw in zip(range(first, first + len(cells)), cells, draws):
            approx = (index >= s.honest_warmup and self.census[program] >= s.small_job_threshold
                      and draw < s.dishonest_prob)
            jobs.append(Job(kind, program, inputs, flags if approx else ()))
        return jobs

    def _call(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = cli.main(argv)
        except SystemExit as e:  # argparse usage errors exit through here
            rc = e.code if isinstance(e.code, int) else 1
        return rc, out.getvalue()

    def _job(self, job: Job, record: bool) -> tuple[float, bool, str]:
        """Run one job; returns (latency, ok, its result when `record`)."""
        run = ["run", "--program", job.program, "--inputs", job.inputs, *job.flags, "--out", self.trace_path]
        t0 = perf_counter()
        rc, _ = self._call(run)
        verdict = None
        if rc == 0:
            if job.kind == "int":
                with open(self.trace_path, encoding="utf-8") as f:
                    claimed = json.load(f)["outputs"][0]
                check = ["rcc", "--program", job.program, "--inputs", job.inputs, "--claimed", str(claimed)]
            else:
                check = ["fbc-judge", "--instrumented", job.program, "--trace", self.trace_path]
            verdict, _ = self._call(check)
        latency = perf_counter() - t0
        # rcc exits 0 negative, 2 positive, 3 inconclusive; fbc-judge 0 or 2
        ok = rc == 0 and verdict != 1 and (verdict == 0 or not job.honest)
        result = ""
        if record:
            result = f"{job.kind} {os.path.basename(job.program)} {' '.join(job.flags)} -> {rc} {verdict}"
            if rc == 0:
                with open(self.trace_path, encoding="utf-8") as f:
                    result += " " + json.dumps(json.load(f)["outputs"])
        return latency, ok, result

    def unit(self, k: int, rec: spans.Recorder | None = None) -> Unit:
        """Run block k, recording spans into `rec` when given. Its wall time
        is the sum of its job latencies.

        Block 0's digest covers each job's outputs and verdict, not the
        verdict documents' layout, which may gain fields.
        """
        jobs = self.block(k)
        undo = [] if rec is None else spans.install(rec)
        timed, failed, lines = [], 0, []
        try:
            for i, job in enumerate(jobs):
                if rec is not None:
                    rec.run_id = k * len(jobs) + i + 1
                try:
                    latency, ok, line = self._job(job, record=k == 0)
                except Exception:  # a crash is a failed job; the loop goes on
                    traceback.print_exc(file=sys.stderr)
                    latency, ok, line = 0.0, False, f"{job.kind} crashed"
                timed.append((job.stratum, latency))
                failed += not ok
                lines.append(line)
        finally:
            spans.uninstall(undo)
        digest = _sha("\n".join(lines)) if k == 0 else None
        wall = sum(latency for _, latency in timed)
        return Unit(wall, len(jobs), len(jobs), failed, timed, digest, peak_rss_mb())


def make(name: str, seed: int, size_name: str, workdir: str):
    if name == "campaign_rcc":
        return Campaign(seed, size_name, workdir)
    if name == "client_jobs":
        return ClientJobs(seed, size_name, workdir)
    raise ValueError(f"unknown workload {name!r}")
