"""Dishonest-server simulation and detection campaigns.

The simulated server plays a fixed strategy, `ServerStrategy.cheats`: the
first `honest_warmup` jobs run accurately, jobs whose arithmetic census is
below `small_job_threshold` run accurately, and every other job runs on the
approximate backend with probability `dishonest_prob`. The scalar server and
the vectorized campaign cells both apply that rule and burn one coin draw per
job, each from its own substream, so they agree by rule, not draw for draw.

Campaign reports aggregate per (program, backend) cell and serialize to a
versioned CSV whose bytes depend only on the configuration and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .approx import EXACT_UNIT, ArithBackend, IntUnitModel, check_fp_bits, error_stats
from .errors import ConfigError, known_keys, typed, unique
from .fbc import (
    DEFAULT_DELTA,
    DEFAULT_STEPS,
    InstrumentedGraph,
    SentinelKind,
    check_delta,
    check_steps,
    instrument_seeded,
    sentinel_distance,
    sentinel_kind,
)
from .graph import DFGraph, ScalarType, Trace, op_census
from .interp import evaluate, evaluate_batch
from .programs import INTEGER_SHORTHANDS, builtin_spec, draw_inputs
from .rcc import ModuleSet, failed_rounds, residues_batch
from .rng import check_seed, substream

REPORT_VERSION = "dhac-report-v1"
DETECTION_COLUMNS = ("program", "combo", "check", "raw_rate", "per_detectable_rate", "fp", "fn")
SWEEP_COLUMNS = ("delta", "fp_rate", "fn_rate")


@dataclass(frozen=True)
class ServerStrategy:
    honest_warmup: int = 10
    small_job_threshold: int = 30
    dishonest_prob: float = 1.0

    def __post_init__(self):
        typed(self.honest_warmup, int, "honest_warmup", ConfigError)
        typed(self.small_job_threshold, int, "small_job_threshold", ConfigError)
        typed(self.dishonest_prob, float, "dishonest_prob", ConfigError)
        if self.honest_warmup < 0 or self.small_job_threshold < 0:
            raise ConfigError("strategy thresholds must be non-negative")
        if not 0.0 <= self.dishonest_prob <= 1.0:
            raise ConfigError("dishonest_prob must be in [0, 1]")

    def cheats(self, index, census, draw):
        """Whether job `index`, of this op census, runs approximately; on ints and lanes alike."""
        return (index >= self.honest_warmup) & (census >= self.small_job_threshold) & (draw < self.dishonest_prob)


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
) -> tuple[Trace, bool]:
    """Run one job the way the strategic server would; returns (trace, cheated).

    One decision draw is consumed per job regardless of eligibility, which
    keeps the scalar server aligned with the batched campaign runners.
    """
    draw = float(state.rng.uniform())
    index = state.index
    state.index += 1
    cheated = strategy.cheats(index, op_census(graph)["total"], draw)
    return evaluate(graph, inputs, approx_backend if cheated else ArithBackend.accurate()), cheated


# ---------------------------------------------------------------------------
# configuration


def default_combos() -> list[ArithBackend]:
    """The nine integer unit pairings campaigns use unless told otherwise."""
    adders = [IntUnitModel("loa", 4), IntUnitModel("trunc_add", 6), IntUnitModel("seg_carry", 4)]
    muls = [IntUnitModel("trunc_mul", 4), IntUnitModel("broken_array", 4), IntUnitModel("log_approx")]
    return [ArithBackend(a, m) for a in adders for m in muls]


DEFAULT_FP_BITS = (10, 20)


@dataclass(frozen=True)
class ProgramEntry:
    label: str
    name: str
    params: tuple = ()  # sorted (key, value) pairs; hashable and picklable

    def spec(self):
        return builtin_spec(self.name, **dict(self.params))


def _value(value, kind: type, key: str, of: type | None = None):
    """A config value by errors.typed's rule, named by its key (a list's items by the list's)."""
    return typed(value, kind, f"bad config value: '{key}'", ConfigError, of)


def _program_entry(item) -> ProgramEntry:
    if isinstance(item, str):
        return ProgramEntry(label=item, name=item)
    if isinstance(item, dict) and "name" in item:
        name = _value(item["name"], str, "name")
        # every builtin parameter is an int; entries key the campaign's build dict
        params = {k: _value(v, int, k) for k, v in item.items() if k not in ("name", "label")}
        return ProgramEntry(_value(item.get("label", name), str, "label"), name, tuple(sorted(params.items())))
    raise ConfigError(f"program entry must be a name or an object with 'name', got {item!r}")


def backend_from_dict(doc: dict) -> ArithBackend:
    """Backend from a config fragment {adder: {kind, k}, multiplier: {kind, k}, fp_trunc_bits}.

    An absent unit is exact; an unknown key raises ConfigError.
    """
    known_keys(typed(doc, dict, "backend", ConfigError), {"adder", "multiplier", "fp_trunc_bits"}, "backend", ConfigError)

    def unit(key: str) -> IntUnitModel:
        if doc.get(key) is None:
            return EXACT_UNIT
        frag = known_keys(_value(doc[key], dict, key), {"kind", "k"}, f"backend '{key}'", ConfigError)
        if "kind" not in frag:
            raise ConfigError(f"backend '{key}' needs a 'kind'")
        return IntUnitModel(_value(frag["kind"], str, "kind"), _value(frag.get("k", 0), int, "k"))

    return ArithBackend(unit("adder"), unit("multiplier"), _value(doc.get("fp_trunc_bits", 0), int, "fp_trunc_bits"))


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

    def __post_init__(self):
        check_seed(self.seed)
        typed(self.trials, int, "trials", ConfigError)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        check_delta(self.fbc_delta, ConfigError)
        check_steps(self.fbc_n, ConfigError)
        for bits in self.fp_bits:
            check_fp_bits(bits)
        # a cell's rows are keyed by its labels, so no two cells may share them
        unique([e.label for e in self.rcc_programs], "rcc program label", ConfigError)
        unique([e.label for e in self.fbc_programs], "fbc program label", ConfigError)
        unique([b.label() for b in self.combos], "combo label", ConfigError)
        unique(self.fp_bits, "fp_bits width", ConfigError)
        unique([k.value for k in self.fbc_kinds], "sentinel kind", ConfigError)


# each config object's keys, with the kind of each value
_TOP_KEYS = {"seed": int, "trials": int, "strategy": dict, "moduli": list, "rcc": dict, "fbc": dict}
_STRATEGY_KEYS = {"honest_warmup": int, "small_job_threshold": int, "dishonest_prob": float}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a campaign config from a parsed JSON document.

    Every value is typed by errors.typed's rule and every object rejects
    unknown keys. A malformed document raises ConfigError (ModulusError for
    a bad modulus).
    """
    known_keys(typed(doc, dict, "config", ConfigError), _TOP_KEYS, "config", ConfigError)
    doc = {k: _value(v, _TOP_KEYS[k], k) for k, v in doc.items()}
    kw = {k: doc[k] for k in ("seed", "trials") if k in doc}
    if "strategy" in doc:
        s = known_keys(doc["strategy"], _STRATEGY_KEYS, "config 'strategy'", ConfigError)
        kw["strategy"] = ServerStrategy(**{k: _value(v, _STRATEGY_KEYS[k], k) for k, v in s.items()})
    if "moduli" in doc:
        kw["moduli"] = ModuleSet(tuple(_value(doc["moduli"], list, "moduli", of=int)))
    rcc = known_keys(doc.get("rcc", {}), {"programs", "combos"}, "config 'rcc'", ConfigError)
    if "programs" in rcc:
        kw["rcc_programs"] = tuple(map(_program_entry, _value(rcc["programs"], list, "programs")))
    if rcc.get("combos", "default") != "default":
        kw["combos"] = tuple(map(backend_from_dict, _value(rcc["combos"], list, "combos")))
    fbc = known_keys(doc.get("fbc", {}), {"programs", "fp_bits", "kinds", "n", "delta", "sites"}, "config 'fbc'", ConfigError)
    if "programs" in fbc:
        kw["fbc_programs"] = tuple(map(_program_entry, _value(fbc["programs"], list, "programs")))
    if "fp_bits" in fbc:
        kw["fp_bits"] = tuple(_value(fbc["fp_bits"], list, "fp_bits", of=int))
    if "kinds" in fbc:
        kinds = _value(fbc["kinds"], list, "kinds", of=str)
        kw["fbc_kinds"] = tuple(sentinel_kind(k, "bad config value: 'kinds'", ConfigError) for k in kinds)
    if "n" in fbc:
        kw["fbc_n"] = _value(fbc["n"], int, "n")
    if "delta" in fbc:
        kw["fbc_delta"] = _value(fbc["delta"], float, "delta")
    if fbc.get("sites", "auto") != "auto":
        kw["fbc_sites"] = tuple(_value(fbc["sites"], list, "sites", of=str))
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
class DetectionReport:
    config: dict
    columns: tuple[str, ...]
    rows: list[dict]
    error_stats: dict = field(default_factory=dict)  # (program, combo) -> ErrorStats

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


def _rows(program: str, combo: str, mask: np.ndarray, detectable: np.ndarray, checks) -> list[dict]:
    """A cell's rows by one count rule: the check "detectable", then each (check, flag) pair.

    `mask` marks the approximate trials and `detectable` (its own flag) those that changed an output;
    a flag's two rates are its shares of each, fp its accurate trials and fn the changed ones it misses.
    """
    n_approx, n_det = int(mask.sum()), int(detectable.sum())
    rows = []
    for check, flag in [("detectable", detectable), *checks]:
        hits, caught = int((flag & mask).sum()), int((flag & detectable).sum())
        fp, fn = int((flag & ~mask).sum()), int((detectable & ~flag).sum())
        values = (program, combo, check, _rate(hits, n_approx), _rate(caught, n_det), fp, fn)
        rows.append(dict(zip(DETECTION_COLUMNS, values)))
    return rows


# ---------------------------------------------------------------------------
# one trial server and one cell loop for every campaign


def _program(cfg: ScenarioConfig, builds: dict, check: str, entry: ProgramEntry):
    """The builtin's spec and the graph `check` runs, built once per `builds` dict.

    rcc runs the plain graph. fbc runs it with one sentinel per configured
    kind, whose operands depend only on (seed, program, kind), so every fbc
    cell of a program sees the same instrumented job.
    """
    key = (check, entry)
    if key not in builds:
        spec = entry.spec()
        if check == "fbc":
            ins = instrument_seeded(
                spec.graph, cfg.fbc_kinds, cfg.fbc_sites, cfg.seed, entry.label, cfg.fbc_n, cfg.fbc_delta
            )
        else:
            ins = InstrumentedGraph(spec.graph, ())
        builds[key] = spec, ins
    return builds[key]


def build_instrumented(cfg: ScenarioConfig, entry: ProgramEntry) -> InstrumentedGraph:
    """Instrument a program with one sentinel per configured kind, as the fbc cells do."""
    return _program(cfg, {}, "fbc", entry)[1]


class _Served(NamedTuple):
    program: InstrumentedGraph  # the graph served, with the sentinels the check reads (none for rcc)
    inputs: list  # one column per graph input
    mask: np.ndarray  # the trials the server ran approximately
    detectable: np.ndarray  # approximate trials with any output changed
    exact: Trace  # the accurate run of every trial
    approx: Trace | None  # the approximate run of the masked trials, None if none


def _serve(cfg: ScenarioConfig, builds: dict, check: str, entry: ProgramEntry, cell: str, backend) -> _Served:
    """Serve cfg.trials jobs of one cell the way the strategic server would.

    Inputs and coins come from the cell's own substreams, so a cell can run
    alone or in any worker and still make the same decisions.
    """
    spec, ins = _program(cfg, builds, check, entry)
    g, n = ins.graph, cfg.trials
    cols = draw_inputs(spec, substream(cfg.seed, check, entry.label, cell, "inputs"), n)
    draws = substream(cfg.seed, check, entry.label, cell, "dishonest").uniform(size=n)
    mask = cfg.strategy.cheats(np.arange(n), op_census(g)["total"], draws)
    exact = evaluate_batch(g, cols, ArithBackend.accurate())
    approx = None
    detectable = np.zeros(n, dtype=bool)
    if mask.any():
        approx = evaluate_batch(g, [c[mask] for c in cols], backend)
        for e_out, a_out in zip(exact.outputs, approx.outputs):
            detectable[mask] |= e_out[mask] != a_out
    return _Served(ins, cols, mask, detectable, exact, approx)


def _received(served: _Served, lanes_of) -> np.ndarray:
    """The lanes_of(trace) the client receives: the approximate run's on masked trials."""
    lanes = lanes_of(served.exact)
    if served.approx is None:
        return lanes
    lanes = lanes.copy()
    lanes[served.mask] = lanes_of(served.approx)
    return lanes


def _rcc_cell(cfg: ScenarioConfig, builds: dict, entry: ProgramEntry, backend: ArithBackend):
    combo = backend.label()
    served = _serve(cfg, builds, "rcc", entry, combo, backend)
    mask, claimed = served.mask, _received(served, lambda tr: tr.outputs[0])
    first_fail = failed_rounds(residues_batch(served.program.graph, served.inputs, cfg.moduli), claimed, cfg.moduli)
    rounds = [(f"round{j}", (first_fail > 0) & (first_fail <= j)) for j in range(1, len(cfg.moduli) + 1)]
    stats = {}
    if mask.any():
        stats[(entry.label, combo)] = error_stats(served.exact.outputs[0][mask], claimed[mask], ScalarType.INT16)
    return _rows(entry.label, combo, mask, served.detectable, rounds), stats


def _fbc_taps(cfg: ScenarioConfig, builds: dict, entry: ProgramEntry, bits: int):
    """One (program, fp-bits) cell served, kept as (mask, detectable, sentinels, client taps): its traces free on return."""
    served = _serve(cfg, builds, "fbc", entry, f"fp{bits}", ArithBackend(fp_bits=bits))
    sentinels = served.program.sentinels
    taps = {k: _received(served, lambda tr: tr.exports[k]) for s in sentinels for k in (s.entry_export, s.exit_export)}
    return served.mask, served.detectable, sentinels, taps


def _fbc_cell(cfg: ScenarioConfig, builds: dict, entry: ProgramEntry, bits: int):
    mask, detectable, sentinels, taps = _fbc_taps(cfg, builds, entry, bits)
    checks = [(f"sentinel-{s.kind.value}", sentinel_distance(s, taps)[1]) for s in sentinels]
    checks.append(("overall", np.logical_or.reduce([flag for _, flag in checks])))
    return _rows(entry.label, f"fp_trunc({bits})", mask, detectable, checks), {}


def _rcc_cells(cfg: ScenarioConfig) -> list:
    return [(_rcc_cell, entry, backend) for entry in cfg.rcc_programs for backend in cfg.combos]


def _fbc_cells(cfg: ScenarioConfig) -> list:
    return [(_fbc_cell, entry, bits) for entry in cfg.fbc_programs for bits in cfg.fp_bits]


def _run_cell(cfg: ScenarioConfig, builds: dict, cell):
    fn, entry, arg = cell
    return fn(cfg, builds, entry, arg)


def _campaign(cfg: ScenarioConfig, cells: list, jobs: int = 1) -> DetectionReport:
    """Run (cell function, entry, backend | bits) cells into one report, in order.

    Every cell derives its own random streams from the config seed, so the
    report is identical for any jobs value. A serial run builds each program
    once; in a pool each task unpickles its own empty build dict.
    """
    report = DetectionReport(_config_echo(cfg), DETECTION_COLUMNS, [])
    run = partial(_run_cell, cfg, {})
    workers = min(jobs, len(cells))  # the pool would start all `jobs` workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only by a run that starts workers

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run, cells))
    else:
        results = map(run, cells)
    for rows, stats in results:
        report.rows.extend(rows)
        report.error_stats.update(stats)
    return report


def run_rcc_trials(cfg: ScenarioConfig) -> DetectionReport:
    """Residue-check campaign over every (program, combo) cell."""
    return _campaign(cfg, _rcc_cells(cfg))


def run_fbc_trials(cfg: ScenarioConfig) -> DetectionReport:
    """Sentinel campaign over every (program, fp-bits) cell."""
    return _campaign(cfg, _fbc_cells(cfg))


def run_bench(cfg: ScenarioConfig, jobs: int = 1) -> DetectionReport:
    """Residue and sentinel campaigns together; cells may run in parallel."""
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return _campaign(cfg, _rcc_cells(cfg) + _fbc_cells(cfg), jobs)


def sweep_threshold(cfg: ScenarioConfig, deltas) -> DetectionReport:
    """Re-threshold recorded sentinel taps at each delta.

    Each cell is evaluated once; a trial counts as flagged when any
    sentinel fires at the threshold.
    """
    deltas = list(deltas)
    if not deltas:
        raise ConfigError("sweep needs at least one delta")
    for delta in deltas:
        check_delta(delta, ConfigError)
    builds: dict = {}
    cells = [_fbc_taps(cfg, builds, entry, bits) for _, entry, bits in _fbc_cells(cfg)]
    n_approx = sum(int(mask.sum()) for mask, *_ in cells)
    n_accurate = cfg.trials * len(cells) - n_approx
    report = DetectionReport(_config_echo(cfg), SWEEP_COLUMNS, [])
    for delta in deltas:
        fp = miss = 0
        for mask, _, sentinels, taps in cells:
            flag = np.logical_or.reduce([sentinel_distance(replace(s, delta=delta), taps)[1] for s in sentinels])
            fp += int((flag & ~mask).sum())
            miss += int((~flag & mask).sum())
        report.rows.append({"delta": float(delta), "fp_rate": _rate(fp, n_accurate), "fn_rate": _rate(miss, n_approx)})
    return report
