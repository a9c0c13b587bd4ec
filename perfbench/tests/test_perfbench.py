"""The benchmark's own tests: every workload at a toy size, untraced and traced.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_dhac()

import spans  # noqa: E402
import workloads  # noqa: E402
from dhac import interp, scenario  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def _measure(workload, trace, seed=5):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--size", "tiny"]
    return run.measure(run.parse_args(argv))


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, where the benchmark keeps its files."""
    os.makedirs(run.OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _measure(w, 1) for w in NAMES}


def test_benchmark_json_names_the_runner_workloads():
    assert tuple(NAMES) == run.WORKLOADS
    assert set(END_TO_END) == set(run.END_TO_END)


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    record, rec = _measure(workload, 0)
    result = run.result_line(record)
    assert rec is None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["machine"]["nproc"] >= 1 and record["machine"]["cpu_model"]
    assert record["metrics"]["job_p90_ms"]["samples"].endswith(" jobs")


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_per_layer_metric(traced_runs, workload):
    record, rec = traced_runs[workload]
    result = run.result_line(record)
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == PER_LAYER
    assert len(rec) > 0


@pytest.mark.parametrize("workload", NAMES)
def test_spans_nest_within_their_parent_and_share_its_run_id(traced_runs, workload):
    _, rec = traced_runs[workload]
    for i, p in enumerate(rec.parent):
        assert rec.start[i] <= rec.end[i]
        assert rec.run[i] >= 1
        if p >= 0:
            assert p < i
            assert rec.start[p] <= rec.start[i] and rec.end[i] <= rec.end[p]
            assert rec.run[p] == rec.run[i]


@pytest.mark.parametrize("workload", NAMES)
def test_self_times_are_non_negative(traced_runs, workload):
    record, rec = traced_runs[workload]
    assert min(rec.self_ns()) >= 0
    layer = {k: m["value"] for k, m in record["metrics"].items() if k != "trace.overhead_frac"}
    assert min(layer.values()) >= 0


def test_workloads_exercise_separate_layers(traced_runs):
    def m(workload, name):
        return traced_runs[workload][0]["metrics"][name]["value"]

    assert m("campaign_rcc", "rcc.residues_batch_s") > 0
    assert m("campaign_rcc", "rcc.residues_batch_s.m7") > 0
    assert m("campaign_rcc", "interp.evaluate_calls") == 0
    assert m("campaign_rcc", "scenario.self_s") > 0
    assert m("campaign_rcc", "cli.calls") == 0
    assert m("client_jobs", "interp.evaluate_batch_calls") == 0
    assert m("client_jobs", "rcc.residues_batch_s") == 0
    assert m("client_jobs", "interp.evaluate_calls") == 1  # one `run` per job
    assert m("client_jobs", "cli.calls") == 2


def test_a_missing_target_records_nothing_and_does_not_fail(workdir):
    gone = (
        ("interp.gone", "dhac.interp", "no_such_function", None),
        ("graph.gone", "dhac.graph", "DFGraph.no_such_method", None),
        ("nowhere.gone", "dhac.no_such_module", "f", None),
    )
    rec = spans.Recorder()
    undo = spans.install(rec, spans.TARGETS + gone)
    try:
        done = workloads.make("campaign_rcc", 5, "tiny", workdir).run_here(0, rec)
    finally:
        spans.uninstall(undo)
    assert done["failed"] == 0
    recorded = {rec.names[i] for i in rec.name_id}
    assert "scenario.run_bench" in recorded
    assert not any(name.endswith(".gone") for name in recorded)
    spans.layer_metrics(rec, 1)


def test_uninstall_restores_every_binding():
    before = (scenario.evaluate_batch, interp.add16_batch, scenario.DFGraph.validate)
    undo = spans.install(spans.Recorder())
    assert scenario.evaluate_batch is not before[0]
    spans.uninstall(undo)
    assert (scenario.evaluate_batch, interp.add16_batch, scenario.DFGraph.validate) == before


def test_timings_count_every_operation_of_the_run():
    units = [
        workloads.Unit(2.0, 3, 3, 0, [("int a", 0.5), ("float b", 1.0), ("int a", 0.5)]),
        workloads.Unit(4.0, 3, 3, 0, [("int a", 1.5), ("float b", 2.0), ("int c", 0.5)]),
    ]
    metrics, samples = run.end_to_end(units, [0.3, 0.1, 0.2])
    assert metrics["trials_per_s"] == 6 / 6.0
    assert metrics["job_p50_ms"] == 500.0
    assert metrics["fbc_job_p50_ms"] == 1500.0
    assert metrics["setup_s"] == 0.2
    assert samples["job_p90_ms"] == "4 jobs"


def test_a_flagged_honest_row_fails_the_campaign():
    head = "dhac-report-v1\n# seed=1\nprogram,combo,check,raw_rate,per_detectable_rate,fp,fn\n"
    assert workloads.honest_never_flagged(head + "fir,x,round1,1.0,1.0,0,0\n")
    assert not workloads.honest_never_flagged(head + "fir,x,round1,1.0,1.0,1,0\n")
    assert not workloads.honest_never_flagged(head)
    assert not workloads.honest_never_flagged("")


def test_digests_must_agree_and_match_the_recorded_one():
    def units(*digests):
        return [workloads.Unit(1.0, 1, 1, 0, [("campaign", 1.0)], digest=d) for d in digests]

    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as f:
        recorded = json.load(f)["sha256"]["full"]["campaign_rcc"]["1"]
    assert run.check_digests("campaign_rcc", 1, "full", units(recorded, recorded))[0]
    assert not run.check_digests("campaign_rcc", 1, "full", units("0" * 64))[0]
    assert not run.check_digests("campaign_rcc", 7, "full", units("a", "b"))[0]
    assert run.check_digests("campaign_rcc", 7, "full", units("a", None))[0]


def test_client_blocks_are_a_function_of_seed_and_index(workdir):
    dirs = [os.path.join(workdir, d) for d in "ab"]
    for d in dirs:
        os.makedirs(d)
    a, b = (workloads.make("client_jobs", 5, "tiny", d) for d in dirs)
    strip = lambda jobs: [(j.kind, os.path.basename(j.program), os.path.basename(j.inputs), j.flags) for j in jobs]
    assert strip(a.block(3)) == strip(b.block(3))


def test_client_server_plays_the_default_strategy(workdir):
    client = workloads.make("client_jobs", 5, "tiny", workdir)
    first, later = client.block(0), client.block(3)
    assert len(later) == 6 * 9 + 2
    assert all(j.honest for j in first[: scenario.ServerStrategy().honest_warmup])
    for job in later:
        small = job.kind == "int" and job.program in ("fir", "conv2x2")  # op census under 30
        assert job.honest == small
    assert sorted(j.flags for j in later if j.kind == "float") == [("--fp-bits", "10"), ("--fp-bits", "20")]
    int_cells = {(j.program, j.flags) for j in later if j.kind == "int" and not j.honest}
    assert len(int_cells) == 4 * 9


def test_campaign_spans_from_child_processes_merge_into_one_recorder(workdir):
    campaign = workloads.make("campaign_rcc", 5, "tiny", workdir)
    rec = spans.Recorder()
    units = [campaign.unit(k, rec) for k in range(2)]
    assert [u.failed for u in units] == [0, 0] and units[0].digest == units[1].digest
    assert units[0].peak_rss_mb > 0
    runs = [rec.run[i] for i in range(len(rec)) if rec.names[rec.name_id[i]] == "scenario.run_bench"]
    assert runs == [1, 2]


def test_command_line_prints_every_metric_then_the_result():
    argv = BENCHMARK["command"] + ["--workload", "campaign_rcc", "--seed", "3", "--seconds", "0.2",
                                  "--trace", "0", "--size", "tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in END_TO_END.items():
        assert any(ln.split()[:1] == [name] and f" {unit}" in ln for ln in lines[:-1]), name
    assert any(ln.split()[:1] == ["failed_frac"] for ln in lines[:-1])


def test_exits_non_zero_without_the_program_sources(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(workdir, path),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    argv = BENCHMARK["command"] + ["--workload", "campaign_rcc", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=workdir, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
