"""Dishonest-server simulation and detection campaigns.

The simulated server plays a fixed strategy: the first `honest_warmup` jobs
run accurately, jobs whose arithmetic census is below `small_job_threshold`
run accurately, and every other job runs on the approximate backend with
probability `dishonest_prob`. The per-job coin is drawn from a stream
independent of the input stream, so the scalar server and the vectorized
trial runners make identical decisions for the same seed.

Campaign reports aggregate per (program, backend) cell and serialize to a
versioned CSV whose bytes depend only on the configuration and seed.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .approx import ArithBackend, ErrorStats, IntUnitModel, Paradigm, backend_from_dict, error_stats
from .errors import ConfigError, InputError
from .fbc import (
    DEFAULT_DELTA,
    DEFAULT_STEPS,
    InstrumentedGraph,
    SentinelKind,
    auto_sites,
    instrument,
    make_sentinel,
    sentinel_distance,
)
from .graph import DFGraph, ScalarType, Trace, op_census
from .interp import evaluate, evaluate_batch
from .programs import INTEGER_SHORTHANDS, builtin_spec, draw_inputs
from .rcc import ModuleSet, failed_rounds, residues_batch
from .rng import substream

REPORT_VERSION = "dhac-report-v1"
DETECTION_COLUMNS = ("program", "combo", "check", "raw_rate", "per_detectable_rate", "fp", "fn")
SWEEP_COLUMNS = ("delta", "fp_rate", "fn_rate")


@dataclass(frozen=True)
class ServerStrategy:
    honest_warmup: int = 10
    small_job_threshold: int = 30
    dishonest_prob: float = 1.0

    def __post_init__(self):
        if self.honest_warmup < 0 or self.small_job_threshold < 0:
            raise ConfigError("strategy thresholds must be non-negative")
        if not 0.0 <= self.dishonest_prob <= 1.0:
            raise ConfigError("dishonest_prob must be in [0, 1]")


@dataclass
class ServerState:
    """Per-server mutable state: the job counter and the decision stream."""

    rng: np.random.Generator
    index: int = 0


def server_state(seed: int) -> ServerState:
    return ServerState(rng=substream(seed, "server", "dishonest"))


def server_execute(
    graph: DFGraph,
    inputs,
    strategy: ServerStrategy,
    approx_backend: ArithBackend,
    state: ServerState,
) -> tuple[Trace, Paradigm]:
    """Run one job the way the strategic server would.

    One decision draw is consumed per job regardless of eligibility, which
    keeps the scalar server aligned with the batched campaign runners.
    """
    draw = float(state.rng.uniform())
    index = state.index
    state.index += 1
    census = op_census(graph)["total"]
    eligible = index >= strategy.honest_warmup and census >= strategy.small_job_threshold
    if eligible and draw < strategy.dishonest_prob:
        backend, paradigm = approx_backend, Paradigm.APPROXIMATE
    else:
        backend, paradigm = ArithBackend.accurate(), Paradigm.ACCURATE
    return evaluate(graph, inputs, backend), paradigm


def _approx_mask(strategy: ServerStrategy, census: int, n: int, draws: np.ndarray) -> np.ndarray:
    idx = np.arange(n)
    eligible = (idx >= strategy.honest_warmup) & (census >= strategy.small_job_threshold)
    return eligible & (draws < strategy.dishonest_prob)


def ground_truth_oracle(graph: DFGraph, inputs, claimed_outputs) -> bool:
    """True when the claimed outputs differ from an accurate re-run."""
    tr = evaluate(graph, inputs, ArithBackend.accurate())
    if len(claimed_outputs) != len(tr.outputs):
        raise InputError(f"expected {len(tr.outputs)} outputs, got {len(claimed_outputs)}")
    return any(float(c) != float(e) for c, e in zip(claimed_outputs, tr.outputs))


# ---------------------------------------------------------------------------
# configuration


def default_combos() -> list[ArithBackend]:
    """The nine integer unit pairings campaigns use unless told otherwise."""
    adders = [IntUnitModel("loa", 4), IntUnitModel("trunc_add", 6), IntUnitModel("seg_carry", 4)]
    muls = [IntUnitModel("trunc_mul", 4), IntUnitModel("broken_array", 4), IntUnitModel("log_approx")]
    return [ArithBackend.approximate(adder=a, multiplier=m) for a in adders for m in muls]


DEFAULT_FP_BITS = (10, 20)


@dataclass(frozen=True)
class ProgramEntry:
    label: str
    name: str
    params: tuple = ()  # sorted (key, value) pairs; hashable and picklable

    def spec(self):
        return builtin_spec(self.name, **dict(self.params))


def _program_entry(item) -> ProgramEntry:
    if isinstance(item, str):
        return ProgramEntry(label=item, name=item)
    if isinstance(item, dict) and "name" in item:
        params = {k: v for k, v in item.items() if k not in ("name", "label")}
        return ProgramEntry(
            label=str(item.get("label", item["name"])),
            name=str(item["name"]),
            params=tuple(sorted(params.items())),
        )
    raise ConfigError(f"program entry must be a name or an object with 'name', got {item!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    trials: int = 10000
    strategy: ServerStrategy = ServerStrategy()
    moduli: ModuleSet = ModuleSet()
    rcc_programs: tuple[ProgramEntry, ...] = tuple(_program_entry(p) for p in INTEGER_SHORTHANDS)
    combos: tuple[ArithBackend, ...] = tuple(default_combos())
    fbc_programs: tuple[ProgramEntry, ...] = (ProgramEntry("conv_layer", "conv_layer"),)
    fp_bits: tuple[int, ...] = DEFAULT_FP_BITS
    fbc_kinds: tuple[SentinelKind, ...] = (
        SentinelKind.ADDITION,
        SentinelKind.MULTIPLICATION,
        SentinelKind.TAN_ARCTAN,
    )
    fbc_n: int = DEFAULT_STEPS
    fbc_delta: float = DEFAULT_DELTA
    fbc_sites: tuple[str, ...] | None = None  # None = auto selection
    keep_records: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")


def _section(doc: dict, key: str) -> dict:
    sec = doc.get(key, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"'{key}' must be an object")
    return sec


def _listed(sec: dict, key: str, convert) -> tuple:
    if not isinstance(sec[key], list):
        raise ConfigError(f"'{key}' must be a list")
    return tuple(convert(x) for x in sec[key])


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a campaign config from a parsed JSON document.

    A malformed document raises ConfigError (ModulusError for a bad modulus).
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {"seed", "trials", "strategy", "moduli", "rcc", "fbc", "keep_records"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return _config_from_dict(doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad config value: {e}") from None


def _config_from_dict(doc: dict) -> ScenarioConfig:
    kw: dict = {}
    if "seed" in doc:
        kw["seed"] = int(doc["seed"])
    if "trials" in doc:
        kw["trials"] = int(doc["trials"])
    if "strategy" in doc:
        s = doc["strategy"]
        if not isinstance(s, dict):
            raise ConfigError("'strategy' must be an object")
        kw["strategy"] = ServerStrategy(
            honest_warmup=int(s.get("honest_warmup", 10)),
            small_job_threshold=int(s.get("small_job_threshold", 30)),
            dishonest_prob=float(s.get("dishonest_prob", 1.0)),
        )
    if "moduli" in doc:
        kw["moduli"] = ModuleSet(_listed(doc, "moduli", int))
    rcc = _section(doc, "rcc")
    if "programs" in rcc:
        kw["rcc_programs"] = _listed(rcc, "programs", _program_entry)
    if "combos" in rcc and rcc["combos"] != "default":
        kw["combos"] = _listed(rcc, "combos", backend_from_dict)
    fbc = _section(doc, "fbc")
    if "programs" in fbc:
        kw["fbc_programs"] = _listed(fbc, "programs", _program_entry)
    if "fp_bits" in fbc:
        kw["fp_bits"] = _listed(fbc, "fp_bits", int)
    if "kinds" in fbc:
        try:
            kw["fbc_kinds"] = _listed(fbc, "kinds", SentinelKind)
        except ValueError as e:
            raise ConfigError(f"unknown sentinel kind in config: {e}") from None
    if "n" in fbc:
        kw["fbc_n"] = int(fbc["n"])
    if "delta" in fbc:
        kw["fbc_delta"] = float(fbc["delta"])
    if "sites" in fbc and fbc["sites"] != "auto":
        kw["fbc_sites"] = _listed(fbc, "sites", str)
    if "keep_records" in doc:
        kw["keep_records"] = bool(doc["keep_records"])
    return ScenarioConfig(**kw)


def _config_echo(cfg: ScenarioConfig) -> dict:
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "honest_warmup": cfg.strategy.honest_warmup,
        "small_job_threshold": cfg.strategy.small_job_threshold,
        "dishonest_prob": cfg.strategy.dishonest_prob,
        "moduli": "|".join(str(m) for m in cfg.moduli),
        "fbc_n": cfg.fbc_n,
        "fbc_delta": cfg.fbc_delta,
    }


# ---------------------------------------------------------------------------
# reports


@dataclass
class TrialRecord:
    index: int
    program: str
    combo: str
    paradigm: Paradigm
    detectable: bool
    judgement: str
    detail: dict = field(default_factory=dict)


@dataclass
class DetectionReport:
    kind: str
    config: dict
    columns: tuple[str, ...]
    rows: list[dict]
    error_stats: dict = field(default_factory=dict)  # (program, combo) -> ErrorStats
    records: list[TrialRecord] = field(default_factory=list)

    def row(self, **match) -> dict:
        hits = [r for r in self.rows if all(r.get(k) == v for k, v in match.items())]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} rows match {match}")
        return hits[0]


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def report_to_csv(report: DetectionReport) -> str:
    lines = [REPORT_VERSION]
    for k in sorted(report.config):
        lines.append(f"# {k}={_fmt_cell(report.config[k])}")
    lines.append(",".join(report.columns))
    for row in report.rows:
        lines.append(",".join(_fmt_cell(row.get(c)) for c in report.columns))
    return "\n".join(lines) + "\n"


def _rate(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def _row(program, combo, check, raw_rate, per_detectable_rate, fp, fn) -> dict:
    return dict(zip(DETECTION_COLUMNS, (program, combo, check, raw_rate, per_detectable_rate, fp, fn)))


def _detectable_row(program: str, combo: str, n_det: int, n_approx: int) -> dict:
    """The row each cell opens with: the share of approximate trials that changed the output."""
    return _row(program, combo, "detectable", _rate(n_det, n_approx), None if n_det == 0 else 1.0, 0, 0)


# ---------------------------------------------------------------------------
# residue-check campaign


def _rcc_cell(cfg: ScenarioConfig, entry: ProgramEntry, backend: ArithBackend):
    spec = entry.spec()
    g = spec.graph
    census = op_census(g)["total"]
    n = cfg.trials
    combo = backend.label()
    cols = draw_inputs(spec, substream(cfg.seed, "rcc", entry.label, combo, "inputs"), n)
    draws = substream(cfg.seed, "rcc", entry.label, combo, "dishonest").uniform(size=n)
    mask = _approx_mask(cfg.strategy, census, n, draws)

    exact = np.asarray(evaluate_batch(g, cols, ArithBackend.accurate()).outputs[0])
    claimed = exact.copy()
    if mask.any():
        sub = [c[mask] for c in cols]
        claimed[mask] = np.asarray(evaluate_batch(g, sub, backend).outputs[0])
    detectable = mask & (claimed != exact)

    first_fail = failed_rounds(residues_batch(g, cols, cfg.moduli), claimed, cfg.moduli)

    n_approx = int(mask.sum())
    n_det = int(detectable.sum())
    fp = int(((~mask) & (first_fail > 0)).sum())

    rows = [_detectable_row(entry.label, combo, n_det, n_approx)]
    for j in range(len(cfg.moduli)):
        det_j = int((mask & (first_fail > 0) & (first_fail <= j + 1)).sum())
        rows.append(
            _row(entry.label, combo, f"round{j + 1}", _rate(det_j, n_approx), _rate(det_j, n_det), fp, n_det - det_j)
        )

    stats = None
    if n_approx:
        stats = error_stats(exact[mask], claimed[mask], ScalarType.INT16)

    records: list[TrialRecord] = []
    if cfg.keep_records:
        for i in range(n):
            records.append(
                TrialRecord(
                    index=i,
                    program=entry.label,
                    combo=combo,
                    paradigm=Paradigm.APPROXIMATE if mask[i] else Paradigm.ACCURATE,
                    detectable=bool(detectable[i]),
                    judgement="positive" if first_fail[i] else "negative",
                    detail={"failed_round": int(first_fail[i]) or None, "claimed": int(claimed[i])},
                )
            )
    return rows, stats, records


def run_rcc_trials(cfg: ScenarioConfig) -> DetectionReport:
    """Residue-check campaign over every (program, combo) cell."""
    report = DetectionReport("rcc", _config_echo(cfg), DETECTION_COLUMNS, [])
    for entry in cfg.rcc_programs:
        for backend in cfg.combos:
            rows, stats, records = _rcc_cell(cfg, entry, backend)
            report.rows.extend(rows)
            if stats is not None:
                report.error_stats[(entry.label, backend.label())] = stats
            report.records.extend(records)
    return report


# ---------------------------------------------------------------------------
# sentinel campaign


def build_instrumented(cfg: ScenarioConfig, entry: ProgramEntry) -> InstrumentedGraph:
    """Instrument a program with one sentinel per configured kind.

    Sentinel operands depend only on (seed, program, kind), so every
    backend cell sees the same instrumented job.
    """
    return _instrument(cfg, entry, entry.spec().graph)


def _instrument(cfg: ScenarioConfig, entry: ProgramEntry, graph: DFGraph) -> InstrumentedGraph:
    if cfg.fbc_sites is not None:
        sites = list(cfg.fbc_sites)
        if len(sites) != len(cfg.fbc_kinds):
            raise ConfigError(f"{len(cfg.fbc_kinds)} sentinel kinds but {len(sites)} sites")
    else:
        sites = auto_sites(graph, len(cfg.fbc_kinds))
    sentinels = [
        make_sentinel(
            kind,
            site,
            substream(cfg.seed, "fbc", entry.label, "sentinel", kind.value),
            n=cfg.fbc_n,
            delta=cfg.fbc_delta,
        )
        for kind, site in zip(cfg.fbc_kinds, sites)
    ]
    return instrument(graph, sentinels)


def _fbc_cell_taps(cfg: ScenarioConfig, entry: ProgramEntry, bits: int):
    """Per-trial sentinel export lanes for one (program, fp-bits) cell.

    Approximate trials read their exports from the approximate run, the
    others from the accurate one, as the server would report them.
    """
    spec = entry.spec()
    ins = _instrument(cfg, entry, spec.graph)
    g = ins.graph
    census = op_census(g)["total"]
    n = cfg.trials
    cell = f"fp{bits}"
    cols = draw_inputs(spec, substream(cfg.seed, "fbc", entry.label, cell, "inputs"), n)
    draws = substream(cfg.seed, "fbc", entry.label, cell, "dishonest").uniform(size=n)
    mask = _approx_mask(cfg.strategy, census, n, draws)
    backend = ArithBackend.approximate(fp_bits=bits)

    exact_tr = evaluate_batch(g, cols, ArithBackend.accurate())
    if mask.any():
        sub = [c[mask] for c in cols]
        approx_tr = evaluate_batch(g, sub, backend)
    else:
        approx_tr = None

    taps: dict[str, np.ndarray] = {}
    for s in ins.sentinels:
        for k in (s.entry_export, s.exit_export):
            taps[k] = exact_tr.exports[k]
            if approx_tr is not None:
                taps[k] = taps[k].copy()
                taps[k][mask] = approx_tr.exports[k]

    detectable = np.zeros(n, dtype=bool)
    if approx_tr is not None:
        diff = np.zeros(int(mask.sum()), dtype=bool)
        for e_out, a_out in zip(exact_tr.outputs, approx_tr.outputs):
            diff |= np.asarray(e_out)[mask] != np.asarray(a_out)
        detectable[mask] = diff

    return ins, taps, mask, detectable


def _fbc_cell_rows(cfg: ScenarioConfig, entry: ProgramEntry, bits: int):
    ins, taps, mask, detectable = _fbc_cell_taps(cfg, entry, bits)
    n_approx = int(mask.sum())
    n_det = int(detectable.sum())
    combo = f"fp_trunc({bits})"

    def flag_row(check: str, flag: np.ndarray) -> dict:
        hits, caught = int((flag & mask).sum()), int((flag & detectable).sum())
        fp, fn = int((flag & ~mask).sum()), int((detectable & ~flag).sum())
        return _row(entry.label, combo, check, _rate(hits, n_approx), _rate(caught, n_det), fp, fn)

    rows = [_detectable_row(entry.label, combo, n_det, n_approx)]
    any_flag = np.zeros(len(mask), dtype=bool)
    for s in ins.sentinels:
        _, flag = sentinel_distance(s, taps)
        any_flag |= flag
        rows.append(flag_row(f"sentinel-{s.kind.value}", flag))
    rows.append(flag_row("overall", any_flag))
    return rows


def run_fbc_trials(cfg: ScenarioConfig) -> DetectionReport:
    """Sentinel campaign over every (program, fp-bits) cell."""
    report = DetectionReport("fbc", _config_echo(cfg), DETECTION_COLUMNS, [])
    for entry in cfg.fbc_programs:
        for bits in cfg.fp_bits:
            report.rows.extend(_fbc_cell_rows(cfg, entry, bits))
    return report


def sweep_threshold(cfg: ScenarioConfig, deltas) -> DetectionReport:
    """Re-threshold recorded sentinel taps at each delta.

    Each cell is evaluated once; a trial counts as flagged when any
    sentinel fires at the threshold.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ConfigError("sweep needs at least one delta")
    cells = []
    for entry in cfg.fbc_programs:
        for bits in cfg.fp_bits:
            ins, taps, mask, _ = _fbc_cell_taps(cfg, entry, bits)
            cells.append((ins.sentinels, taps, mask))
    report = DetectionReport("sweep", _config_echo(cfg), SWEEP_COLUMNS, [])
    for delta in deltas:
        fp = acc = miss = approx = 0
        for sentinels, taps, mask in cells:
            any_flag = np.zeros(len(mask), dtype=bool)
            for s in sentinels:
                any_flag |= sentinel_distance(s, taps, delta)[1]
            fp += int((any_flag & ~mask).sum())
            acc += int((~mask).sum())
            miss += int((~any_flag & mask).sum())
            approx += int(mask.sum())
        report.rows.append(
            {
                "delta": delta,
                "fp_rate": _rate(fp, acc),
                "fn_rate": _rate(miss, approx),
            }
        )
    return report


# ---------------------------------------------------------------------------
# combined benchmark


def _bench_cell(cfg: ScenarioConfig, task):
    kind, entry, payload = task
    if kind == "rcc":
        rows, stats, _ = _rcc_cell(cfg, entry, payload)
        key = (entry.label, payload.label())
        return rows, ({key: stats} if stats is not None else {})
    rows = _fbc_cell_rows(cfg, entry, payload)
    return rows, {}


def run_bench(cfg: ScenarioConfig, jobs: int = 1) -> DetectionReport:
    """Residue and sentinel campaigns together; cells may run in parallel.

    Every cell derives its own random streams from the config seed, so the
    report is identical for any jobs value.
    """
    tasks = []
    for entry in cfg.rcc_programs:
        for backend in cfg.combos:
            tasks.append(("rcc", entry, backend))
    for entry in cfg.fbc_programs:
        for bits in cfg.fp_bits:
            tasks.append(("fbc", entry, bits))

    report = DetectionReport("bench", _config_echo(cfg), DETECTION_COLUMNS, [])
    workers = min(jobs, len(tasks))  # the pool would start all `jobs` workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(partial(_bench_cell, cfg), tasks))
    else:
        results = [_bench_cell(cfg, t) for t in tasks]
    for rows, stats in results:
        report.rows.extend(rows)
        report.error_stats.update(stats)
    return report
