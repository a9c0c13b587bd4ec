"""Strategic server, campaign configs, trial runners, report serialization."""

import concurrent.futures
import math
import re

import numpy as np
import pytest

from dhac import (
    ArithBackend,
    ConfigError,
    ErrorStats,
    IntUnitModel,
    ModuleSet,
    ScenarioConfig,
    ServerStrategy,
    SiteError,
    builtin_spec,
    config_from_dict,
    default_combos,
    draw_inputs,
    evaluate,
    op_census,
    rcc_check,
    report_to_csv,
    run_bench,
    run_fbc_trials,
    run_rcc_trials,
    server_execute,
    server_state,
    sweep_threshold,
)
from dhac.approx import EXACT_UNIT, add16_batch, mul16_batch
from dhac.programs import INTEGER_SHORTHANDS
from dhac.rng import substream
from dhac import scenario
from dhac.scenario import REPORT_VERSION, ProgramEntry, _program_entry

ACC = ArithBackend.accurate()
LOA_BACKEND = ArithBackend(adder=IntUnitModel("loa", 8))


SMALL_CONV = _program_entry({"name": "conv_layer", "channels": 2, "size": 6})


def count_builds(monkeypatch) -> list:
    """The names of the builtins campaigns build from now on, in order."""
    calls = []

    def counting_spec(name, **params):
        calls.append(name)
        return builtin_spec(name, **params)

    monkeypatch.setattr(scenario, "builtin_spec", counting_spec)
    return calls


def small_cfg(**kw):
    base = dict(
        seed=5,
        trials=240,
        strategy=ServerStrategy(0, 0, 0.6),
        rcc_programs=(_program_entry("fir"), _program_entry("conv2x2")),
        combos=tuple(default_combos()[:2]),
        fp_bits=(20,),
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestServerStrategy:
    def test_defaults(self):
        s = ServerStrategy()
        assert (s.honest_warmup, s.small_job_threshold, s.dishonest_prob) == (10, 30, 1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"honest_warmup": -1},
            {"small_job_threshold": -2},
            {"dishonest_prob": 1.5},
            {"dishonest_prob": -0.1},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            ServerStrategy(**kw)

    def test_cheats_on_lanes_matches_scalar_calls(self):
        strat = ServerStrategy(10, 30, 0.5)
        grid = [(i, c, d) for i in (0, 9, 10, 11) for c in (0, 29, 30, 31) for d in (0.0, 0.4999, 0.5, 0.75)]
        index, census, draw = (np.array(col) for col in zip(*grid))
        lanes = strat.cheats(index, census, draw)
        assert lanes.dtype == bool
        assert lanes.tolist() == [strat.cheats(int(i), int(c), float(d)) for i, c, d in grid]
        assert lanes.tolist() == [i >= 10 and c >= 30 and d < 0.5 for i, c, d in grid]
        # one census for every lane, as the campaign cells call it
        assert strat.cheats(index, 30, draw).tolist() == [i >= 10 and d < 0.5 for i, _, d in grid]


class TestServerExecute:
    def _job(self, name="fir", seed=1):
        spec = builtin_spec(name)
        return spec.graph, draw_inputs(spec, substream(seed, "job", name))

    def test_warmup_respected(self):
        g, ins = self._job()
        strat = ServerStrategy(2, 0, 1.0)
        state = server_state(0)
        seen = [server_execute(g, ins, strat, LOA_BACKEND, state)[1] for _ in range(4)]
        assert seen == [False, False, True, True]
        assert state.index == 4

    def test_small_jobs_run_honest(self):
        strat = ServerStrategy(0, 30, 1.0)
        state = server_state(0)
        g, ins = self._job("conv2x2")  # census 7
        assert server_execute(g, ins, strat, LOA_BACKEND, state)[1] is False
        g, ins = self._job("euler2")  # census 52
        assert server_execute(g, ins, strat, LOA_BACKEND, state)[1] is True

    def test_zero_prob_is_always_honest(self):
        g, ins = self._job()
        strat = ServerStrategy(0, 0, 0.0)
        state = server_state(0)
        assert all(
            server_execute(g, ins, strat, LOA_BACKEND, state)[1] is False
            for _ in range(10)
        )

    def test_trace_matches_chosen_backend(self):
        g, ins = self._job()
        honest, cheated = server_execute(g, ins, ServerStrategy(0, 0, 0.0), LOA_BACKEND, server_state(0))
        assert cheated is False
        assert honest.outputs == evaluate(g, ins, ACC).outputs
        lying, cheated = server_execute(g, ins, ServerStrategy(0, 0, 1.0), LOA_BACKEND, server_state(0))
        assert cheated is True
        assert lying.outputs == evaluate(g, ins, LOA_BACKEND).outputs

    def test_one_draw_per_job_even_when_ineligible(self):
        # mixed job sizes must not desync the decision stream
        strat = ServerStrategy(2, 30, 0.5)
        seed = 9
        jobs = [self._job(n, seed=i) for i, n in enumerate(["fir", "euler2", "fir", "euler2", "euler2", "fir"])]
        censuses = [21, 52, 21, 52, 52, 21]

        state = server_state(seed)
        got = [server_execute(g, ins, strat, LOA_BACKEND, state)[1] for g, ins in jobs]

        draws = substream(seed, "server", "dishonest").uniform(size=len(jobs))
        want = [i >= 2 and c >= 30 and draws[i] < 0.5 for i, c in enumerate(censuses)]
        assert got == want
        assert True in got and False in got  # the sequence must exercise both arms


class TestDefaultCombos:
    def test_nine_distinct_approximate_pairings(self):
        combos = default_combos()
        assert len(combos) == 9
        labels = [b.label() for b in combos]
        assert len(set(labels)) == 9
        # approximate by behaviour: each combo's adder and multiplier differ from exact on some operand pair
        a, b = np.random.default_rng(3).integers(-32768, 32768, size=(2, 256))
        for combo in combos:
            assert (add16_batch(combo.adder, a, b) != add16_batch(EXACT_UNIT, a, b)).any()
            assert (mul16_batch(combo.multiplier, a, b) != mul16_batch(EXACT_UNIT, a, b)).any()
        assert all(b.fp_bits == 0 for b in combos)
        assert "loa(4)+log_approx" in labels
        assert "seg_carry(4)+broken_array(4)" in labels


class TestConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.seed == 0 and cfg.trials == 10000
        assert [p.label for p in cfg.rcc_programs] == list(INTEGER_SHORTHANDS)
        assert len(cfg.combos) == 9
        assert [p.label for p in cfg.fbc_programs] == ["conv_layer"]
        assert cfg.fp_bits == (10, 20)
        assert len(cfg.fbc_kinds) == 3
        assert cfg.fbc_n == 3 and cfg.fbc_delta == 1e-13
        assert cfg.fbc_sites is None
        assert cfg.moduli == ModuleSet()

    def test_empty_doc_is_default(self):
        assert config_from_dict({}) == ScenarioConfig()

    def test_full_doc(self):
        cfg = config_from_dict(
            {
                "seed": 3,
                "trials": 77,
                "strategy": {"honest_warmup": 1, "small_job_threshold": 2, "dishonest_prob": 0.25},
                "moduli": [5, 11],
                "rcc": {
                    "programs": ["fir", {"name": "fir_filter", "taps": 5, "label": "short"}],
                    "combos": [{"adder": {"kind": "loa", "k": 2}}],
                },
                "fbc": {
                    "programs": ["conv_layer"],
                    "fp_bits": [12],
                    "kinds": ["mul", "tan"],
                    "n": 5,
                    "delta": 1e-12,
                    "sites": ["acc0_0", "acc0_1"],
                },
            }
        )
        assert cfg.seed == 3 and cfg.trials == 77
        assert cfg.strategy == ServerStrategy(1, 2, 0.25)
        assert cfg.moduli.moduli == (5, 11)
        assert [p.label for p in cfg.rcc_programs] == ["fir", "short"]
        assert cfg.rcc_programs[1].spec().graph.name == "fir5"
        assert [b.label() for b in cfg.combos] == ["loa(2)+exact"]
        assert cfg.fp_bits == (12,)
        assert [k.value for k in cfg.fbc_kinds] == ["mul", "tan"]
        assert cfg.fbc_n == 5 and cfg.fbc_delta == 1e-12
        assert cfg.fbc_sites == ("acc0_0", "acc0_1")

    @pytest.mark.parametrize("value", [[3], {"n": 3}, True, 3.0, 3.5, "3", None])
    def test_program_parameters_must_be_scalars(self, value):
        # every builtin parameter is an int, by the config's integer rule
        with pytest.raises(ConfigError, match=re.escape(f"'taps' must be an integer, got {value!r}")) as e:
            config_from_dict({"rcc": {"programs": [{"name": "fir_filter", "taps": value}]}})
        assert "\n" not in str(e.value)

    @pytest.mark.parametrize(
        "doc, msg",
        [
            ({"rcc": {"programs": [{"name": "euler2", "label": "a"}, {"name": "rk3", "label": "a"}]}}, "rcc program label 'a'"),
            ({"rcc": {"programs": ["fir", "fir"]}}, "rcc program label 'fir'"),
            ({"fbc": {"programs": ["conv_layer", {"name": "fir", "label": "conv_layer"}]}}, "fbc program label 'conv_layer'"),
            ({"rcc": {"combos": [{"adder": {"kind": "loa", "k": 2}}, {}, {"adder": {"kind": "loa", "k": 2}}]}}, "combo label 'loa(2)+exact'"),
            ({"fbc": {"fp_bits": [10, 20, 10]}}, "fp_bits width 10"),
        ],
    )
    def test_duplicate_cells_rejected(self, doc, msg):
        # two cells with the same labels would print rows no reader can tell apart
        with pytest.raises(ConfigError) as e:
            config_from_dict(doc)
        assert str(e.value) == f"duplicate {msg}"

    def test_same_label_in_rcc_and_fbc_allowed(self):
        # an rcc and an fbc cell never share rows: their combos and checks differ
        cfg = config_from_dict({"rcc": {"programs": ["conv2x2"]}, "fbc": {"programs": [{"name": "conv_layer", "label": "conv2x2"}]}})
        assert cfg.rcc_programs[0].label == cfg.fbc_programs[0].label == "conv2x2"

    def test_default_markers(self):
        cfg = config_from_dict({"rcc": {"combos": "default"}, "fbc": {"sites": "auto"}})
        assert len(cfg.combos) == 9
        assert cfg.fbc_sites is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys.*typo"):
            config_from_dict({"typo": 1})

    def test_bad_pieces(self):
        with pytest.raises(ConfigError, match=r"^config must be an object, got \[1, 2\]$"):
            config_from_dict([1, 2])
        with pytest.raises(ConfigError, match="'strategy' must be an object"):
            config_from_dict({"strategy": 5})
        with pytest.raises(ConfigError, match="unknown sentinel kind"):
            config_from_dict({"fbc": {"kinds": ["cos"]}})
        with pytest.raises(ConfigError, match="trials"):
            config_from_dict({"trials": 0})
        for bits in (60, 53, -1):
            with pytest.raises(ConfigError, match=rf"^fp truncation bits must be in \[0, 52\], got {bits}$"):
                config_from_dict({"fbc": {"fp_bits": [10, bits]}})
        with pytest.raises(ConfigError, match="program entry"):
            config_from_dict({"rcc": {"programs": [7]}})
        with pytest.raises(ConfigError, match="'rcc' must be an object"):
            config_from_dict({"rcc": 5})
        with pytest.raises(ConfigError, match="'fbc' must be an object"):
            config_from_dict({"fbc": 7})
        with pytest.raises(ConfigError, match="'moduli' must be a list"):
            config_from_dict({"moduli": 5})
        with pytest.raises(ConfigError, match="'kinds' must be a list"):
            config_from_dict({"fbc": {"kinds": 3}})
        with pytest.raises(ConfigError, match="'programs' must be a list"):
            config_from_dict({"rcc": {"programs": 5}})
        with pytest.raises(ConfigError, match="backend must be an object"):
            config_from_dict({"rcc": {"combos": [5]}})
        with pytest.raises(ConfigError, match="bad config value"):
            config_from_dict({"seed": None})
        for doc, key, value in [
            ({"moduli": [3.5, 5, 7]}, "moduli", 3.5),
            ({"trials": 2.9}, "trials", 2.9),
            ({"trials": True}, "trials", True),
            ({"seed": "1"}, "seed", "1"),
            ({"strategy": {"honest_warmup": 1.5}}, "honest_warmup", 1.5),
            ({"strategy": {"small_job_threshold": False}}, "small_job_threshold", False),
            ({"fbc": {"n": 2.7}}, "n", 2.7),
            ({"fbc": {"fp_bits": [10.0]}}, "fp_bits", 10.0),
            ({"rcc": {"combos": [{"adder": {"kind": "loa", "k": 4.7}}]}}, "k", 4.7),
            ({"rcc": {"combos": [{"fp_trunc_bits": True}]}}, "fp_trunc_bits", True),
        ]:
            with pytest.raises(ConfigError) as e:
                config_from_dict(doc)
            assert str(e.value) == f"bad config value: '{key}' must be an integer, got {value!r}"

    @pytest.mark.parametrize("delta", [-1.0, 0.0, math.inf, math.nan])
    def test_fbc_delta_follows_the_sentinel_rule(self, delta):
        with pytest.raises(ConfigError, match=f"^delta must be positive and finite, got {delta!r}$"):
            ScenarioConfig(fbc_delta=delta)
        with pytest.raises(ConfigError, match="^delta must be positive and finite"):
            config_from_dict({"fbc": {"delta": delta, "programs": []}})

    @pytest.mark.parametrize("n", [0, -3, 1001])
    def test_fbc_n_follows_the_sentinel_rule(self, n):
        # refused with the config, before any cell runs, for any sentinel kinds
        with pytest.raises(ConfigError, match=f"^sentinel needs n >= 1 steps and at most 1000, got {n}$"):
            ScenarioConfig(fbc_n=n)
        with pytest.raises(ConfigError, match=f"^sentinel needs n >= 1 steps and at most 1000, got {n}$"):
            config_from_dict({"fbc": {"n": n, "kinds": ["tan"]}})
        assert config_from_dict({"fbc": {"n": 1000}}).fbc_n == 1000


@pytest.fixture(scope="module")
def rcc_report():
    return run_rcc_trials(small_cfg())


@pytest.fixture(scope="module")
def fbc_report():
    return run_fbc_trials(small_cfg(trials=100, fp_bits=(10, 20)))


class TestRccTrials:
    @pytest.fixture
    def report(self, rcc_report):
        return rcc_report

    def test_row_layout(self, report):
        # per cell: one detectable row plus one row per modulus round
        assert len(report.rows) == 2 * 2 * (1 + 3)
        for row in report.rows:
            assert set(row) == {"program", "combo", "check", "raw_rate", "per_detectable_rate", "fp", "fn"}

    def test_no_false_positives(self, report):
        for row in report.rows:
            assert row["fp"] == 0

    def test_round_rates_monotone(self, report):
        cfg = small_cfg()
        for entry in cfg.rcc_programs:
            for backend in cfg.combos:
                rates = [
                    report.row(program=entry.label, combo=backend.label(), check=f"round{j}")["raw_rate"]
                    for j in (1, 2, 3)
                ]
                fns = [
                    report.row(program=entry.label, combo=backend.label(), check=f"round{j}")["fn"]
                    for j in (1, 2, 3)
                ]
                assert rates == sorted(rates)
                assert fns == sorted(fns, reverse=True)
                assert all(isinstance(f, int) and f >= 0 for f in fns)

    def test_detectable_row_shape(self, report):
        row = report.row(program="fir", combo="loa(4)+trunc_mul(4)", check="detectable")
        assert 0.0 < row["raw_rate"] <= 1.0
        assert row["per_detectable_rate"] == 1.0
        assert row["fp"] == 0 and row["fn"] == 0

    def test_error_stats_per_cell(self, report):
        assert len(report.error_stats) == 4
        for stats in report.error_stats.values():
            assert isinstance(stats, ErrorStats)
            assert stats.n > 0 and stats.mre >= 0.0

    def test_row_accessor_requires_unique_match(self, report):
        with pytest.raises(KeyError, match="rows match"):
            report.row(program="fir")
        with pytest.raises(KeyError, match="0 rows"):
            report.row(program="nope")

    def test_deterministic(self, report):
        again = run_rcc_trials(small_cfg())
        assert report_to_csv(again) == report_to_csv(report)

    def test_failed_round_is_the_judges(self, report):
        # Each trial is rebuilt alone from its cell's streams, served by the
        # scalar evaluate and judged by rcc_check, the code behind `dhac rcc`.
        cfg = small_cfg()
        for entry in cfg.rcc_programs:
            spec = entry.spec()
            census = op_census(spec.graph)["total"]
            for backend in cfg.combos:
                combo = backend.label()
                cols = draw_inputs(spec, substream(cfg.seed, "rcc", entry.label, combo, "inputs"), cfg.trials)
                draws = substream(cfg.seed, "rcc", entry.label, combo, "dishonest").uniform(size=cfg.trials)
                honest = []  # failed round or None per accurate trial
                cheated = []  # (detectable, failed round or None) per approximate trial
                for i in range(cfg.trials):
                    ins = [int(c[i]) for c in cols]
                    cheats = bool(cfg.strategy.cheats(i, census, draws[i]))
                    claim = evaluate(spec.graph, ins, backend if cheats else ACC).outputs[0]
                    verdict = rcc_check(spec.graph, ins, claim, cfg.moduli)
                    if cheats:
                        cheated.append((claim != evaluate(spec.graph, ins, ACC).outputs[0], verdict.failed_round))
                    else:
                        honest.append(verdict.failed_round)
                n_approx, n_det = len(cheated), sum(d for d, _ in cheated)
                assert 0 < n_det <= n_approx
                row = report.row(program=entry.label, combo=combo, check="detectable")
                assert (row["raw_rate"], row["per_detectable_rate"], row["fp"], row["fn"]) == (
                    n_det / n_approx,
                    1.0,
                    0,
                    0,
                )
                for j in range(1, len(cfg.moduli) + 1):
                    caught = [d for d, r in cheated if r is not None and r <= j]
                    fp = sum(r is not None and r <= j for r in honest)  # roundN means rounds 1..N
                    row = report.row(program=entry.label, combo=combo, check=f"round{j}")
                    assert (row["raw_rate"], row["per_detectable_rate"], row["fp"], row["fn"]) == (
                        len(caught) / n_approx,
                        sum(caught) / n_det,
                        fp,
                        n_det - sum(caught),
                    )

    def test_rows_follow_the_flag_rule(self, monkeypatch):
        # A judge result no builtin produces: an honest trial first flagged in
        # round 2 and an approximate trial whose output did not change flagged
        # in round 1. roundN counts the trials flagged in rounds 1..N.
        served = []
        real_serve, real_rounds = scenario._serve, scenario.failed_rounds

        def serve(*args):
            served.append(real_serve(*args))
            return served[-1]

        def crafted(residues, claimed, moduli):
            first = real_rounds(residues, claimed, moduli)
            mask, detectable = served[-1].mask, served[-1].detectable
            first[np.flatnonzero(~mask)[0]] = 2
            first[np.flatnonzero(mask & ~detectable)[0]] = 1
            return first

        monkeypatch.setattr(scenario, "_serve", serve)
        monkeypatch.setattr(scenario, "failed_rounds", crafted)
        combo = {"adder": {"kind": "trunc_add", "k": 1}}  # leaves some approximate outputs unchanged
        cfg = config_from_dict({"trials": 40, "strategy": {"dishonest_prob": 0.5}, "rcc": {"programs": ["rk3"], "combos": [combo]}})
        rows = [run_rcc_trials(cfg).row(check=f"round{j}") for j in (1, 2, 3)]
        mask, detectable = served[0].mask, served[0].detectable
        assert 0 < detectable.sum() < mask.sum()
        assert [r["fp"] for r in rows] == [0, 1, 1]
        assert all(r["fn"] >= 0 and r["per_detectable_rate"] <= 1.0 for r in rows)

    def test_modulus_above_int32_flags_no_honest_trial(self):
        cfg = config_from_dict(
            {
                "trials": 200,
                "moduli": [4294967311],
                "strategy": {"dishonest_prob": 0},
                "rcc": {"programs": ["rk3", "euler3"], "combos": [{"adder": {"kind": "loa", "k": 4}}]},
            }
        )
        report = run_rcc_trials(cfg)
        assert len(report.rows) == 2 * 2
        assert all(row["fp"] == 0 for row in report.rows)


class TestFbcTrials:
    @pytest.fixture
    def report(self, fbc_report):
        return fbc_report

    def test_row_layout(self, report):
        # per cell: detectable + one row per kind + overall
        assert len(report.rows) == 2 * 5
        combos = {r["combo"] for r in report.rows}
        assert combos == {"fp_trunc(10)", "fp_trunc(20)"}
        checks = [r["check"] for r in report.rows if r["combo"] == "fp_trunc(20)"]
        assert checks == ["detectable", "sentinel-add", "sentinel-mul", "sentinel-tan", "overall"]

    def test_no_false_positives_on_exact_trials(self, report):
        for row in report.rows:
            assert row["fp"] == 0

    def test_overall_flags_at_least_each_sentinel(self, report):
        for combo in ("fp_trunc(10)", "fp_trunc(20)"):
            overall = report.row(combo=combo, check="overall")["raw_rate"]
            for kind in ("add", "mul", "tan"):
                assert overall >= report.row(combo=combo, check=f"sentinel-{kind}")["raw_rate"]

    def test_truncation_is_detected(self, report):
        assert report.row(combo="fp_trunc(20)", check="overall")["per_detectable_rate"] > 0.9

    def test_builtin_built_once_per_campaign(self, monkeypatch):
        calls = count_builds(monkeypatch)
        run_fbc_trials(small_cfg(trials=20, fbc_programs=(SMALL_CONV,), fp_bits=(10, 20)))
        assert calls == ["conv_layer"]

    def test_sites_kinds_mismatch_is_one_line(self):
        cfg = small_cfg(trials=20, fbc_programs=(SMALL_CONV,), fbc_sites=("acc0_0",))
        with pytest.raises(SiteError, match="^3 kinds but 1 sites$"):
            run_fbc_trials(cfg)


class TestSweep:
    def test_monotone_and_anchored(self):
        cfg = small_cfg(trials=100, fp_bits=(20,))
        deltas = [1e-10, 1e-13, 1e-15, 1e-17]
        report = sweep_threshold(cfg, deltas)
        assert [row["delta"] for row in report.rows] == deltas
        assert set(report.rows[0]) == {"delta", "fp_rate", "fn_rate"}

        fns = [row["fn_rate"] for row in report.rows]
        assert fns == sorted(fns, reverse=True)  # tighter threshold never misses more
        assert report.row(delta=1e-13)["fp_rate"] == 0.0
        assert report.row(delta=1e-17)["fp_rate"] > 0.0  # below rounding noise

    def test_misses_match_the_campaign_at_its_delta(self):
        # every trial is approximate, so each trial the overall row does not flag is one the sweep misses
        cfg = small_cfg(trials=60, strategy=ServerStrategy(0, 0, 1.0), fbc_programs=(SMALL_CONV,), fp_bits=(6, 20))
        overall = [r for r in run_fbc_trials(cfg).rows if r["check"] == "overall"]
        misses = sum(cfg.trials - round(r["raw_rate"] * cfg.trials) for r in overall)
        (row,) = sweep_threshold(cfg, [cfg.fbc_delta]).rows
        assert row["fp_rate"] is None  # no accurate trial
        assert 0 < misses == round(row["fn_rate"] * len(overall) * cfg.trials)

    def test_empty_deltas_rejected(self):
        with pytest.raises(ConfigError, match="at least one delta"):
            sweep_threshold(small_cfg(), [])

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), math.inf])
    def test_deltas_must_be_positive(self, bad):
        with pytest.raises(ConfigError, match="delta must be positive"):
            sweep_threshold(small_cfg(trials=20, fbc_programs=(SMALL_CONV,)), [1e-13, bad])


class TestBench:
    def test_parallel_matches_serial(self):
        cfg = small_cfg(trials=60)
        serial = run_bench(cfg, jobs=1)
        parallel = run_bench(cfg, jobs=2)
        assert report_to_csv(serial) == report_to_csv(parallel)
        assert len(serial.rows) == 4 * 4 + 1 * 5
        assert len(serial.error_stats) == 4

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_must_be_positive(self, jobs):
        with pytest.raises(ConfigError, match=r"^jobs must be >= 1$"):
            run_bench(small_cfg(trials=20), jobs=jobs)

    def test_workers_capped_at_cell_count(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = small_cfg(trials=20)
        report = run_bench(cfg, jobs=500)
        assert started == [2 * 2 + 1]  # (fir, conv2x2) x 2 combos, plus one fp width
        assert report_to_csv(report) == report_to_csv(run_bench(cfg, jobs=1))

    def test_serial_run_builds_each_program_once(self, monkeypatch):
        calls = count_builds(monkeypatch)
        run_bench(small_cfg(trials=20, fbc_programs=(SMALL_CONV,)))
        assert calls == ["fir", "conv2x2", "conv_layer"]

    def test_csv_shape(self):
        cfg = small_cfg(trials=60, rcc_programs=(_program_entry("conv2x2"),), combos=(LOA_BACKEND,))
        text = report_to_csv(run_bench(cfg))
        lines = text.splitlines()
        assert lines[0] == REPORT_VERSION
        echo = [l for l in lines if l.startswith("# ")]
        assert echo == sorted(echo)
        assert "# seed=5" in echo and "# trials=60" in echo and "# moduli=3|5|7" in echo
        header = lines[1 + len(echo)]
        assert header == "program,combo,check,raw_rate,per_detectable_rate,fp,fn"
        assert len(lines) == 1 + len(echo) + 1 + (4 + 5)
        assert text.endswith("\n")

    def test_none_rates_serialize_empty(self):
        # a never-dishonest server leaves every rate undefined
        cfg = small_cfg(
            trials=40,
            strategy=ServerStrategy(0, 0, 0.0),
            rcc_programs=(_program_entry("conv2x2"),),
            combos=(LOA_BACKEND,),
            fp_bits=(),
        )
        report = run_rcc_trials(cfg)
        det = report.row(check="detectable")
        assert det["raw_rate"] is None and det["per_detectable_rate"] is None
        line = report_to_csv(report).splitlines()[-4]
        assert line == "conv2x2,loa(8)+exact,detectable,,,0,0"


class TestProgramEntry:
    def test_entry_round_trip(self):
        e = _program_entry({"name": "fir_filter", "taps": 5})
        assert e.label == "fir_filter"
        assert isinstance(e, ProgramEntry)
        assert e.spec().graph.name == "fir5"

    def test_plain_string(self):
        assert _program_entry("rk3").label == "rk3"
