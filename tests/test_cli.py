"""End-to-end command line flows, in process via cli.main(argv)."""

import gc
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import dhac
from dhac import (
    ArithBackend,
    IntUnitModel,
    builtin_program,
    builtin_spec,
    draw_inputs,
    evaluate,
    instrument,
    make_sentinel,
    serialize_program,
)
from dhac import cli, fbc, graph, scenario
from dhac.cli import main
from dhac.fbc import FbcVerdict, instrumented_from_dict, instrumented_to_dict, judge
from dhac.graph import DFGraph, Judgement, Trace
from dhac.rng import substream
from dhac.scenario import REPORT_VERSION, ScenarioConfig, _program_entry, build_instrumented
from graphs import div_by_const_graph, float_graph

ACC = ArithBackend.accurate()
CONV_INS = [2, 3, 4, 5, 6, 7, 8, 9]  # conv2x2 -> 2*6 + 3*7 + 4*8 + 5*9 = 110
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def conv_inputs(tmp_path):
    p = tmp_path / "ins.json"
    p.write_text(json.dumps(CONV_INS))
    return str(p)


def _json_file(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(p)


def _toml():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        return pytest.importorskip("tomli")
    return tomllib


def _run_positive_rcc(cmd, tmp_path, env=None):
    """`dhac rcc` on conv2x2 with a claim one off the true 110, as a child process."""
    ins = tmp_path / "i.json"
    ins.write_text(json.dumps(CONV_INS))
    return subprocess.run(
        [*cmd, "rcc", "--program", "conv2x2", "--inputs", str(ins), "--claimed", "111"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )


class TestRun:
    def test_builtin(self, conv_inputs, capsys):
        assert main(["run", "--program", "conv2x2", "--inputs", conv_inputs]) == 0
        assert capsys.readouterr().out == "out 110\n"

    def test_approx_multiplier_flag(self, tmp_path, capsys):
        ins = _json_file(tmp_path, "i.json", [5, 0, 0, 0, 10, 0, 0, 0])
        assert main(["run", "--program", "conv2x2", "--inputs", ins]) == 0
        assert capsys.readouterr().out == "out 50\n"
        assert main(["run", "--program", "conv2x2", "--inputs", ins, "--multiplier", "log_approx"]) == 0
        assert capsys.readouterr().out == "out 48\n"

    def test_trace_file(self, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        ins = _json_file(tmp_path, "i.json", [0.5, 1.25])
        out = tmp_path / "trace.json"
        assert main(["run", "--program", prog, "--inputs", ins, "--out", str(out)]) == 0
        capsys.readouterr()

        doc = json.loads(out.read_text())
        tr = evaluate(float_graph(), [0.5, 1.25], ACC)
        assert doc["outputs"] == [tr.outputs[0]]
        assert doc["exports"] == {"ex": tr.exports["ex"]}

    def test_fp_bits_change_float_result(self, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        ins = _json_file(tmp_path, "i.json", [0.5, 1.25])
        main(["run", "--program", prog, "--inputs", ins])
        exact = capsys.readouterr().out
        main(["run", "--program", prog, "--inputs", ins, "--fp-bits", "20"])
        assert capsys.readouterr().out != exact

    def test_instrumented_file_accepted(self, tmp_path, capsys):
        g = float_graph()
        ins_graph = instrument(g, [make_sentinel("add", "a", substream(0, "x"))])
        prog = _json_file(tmp_path, "ins.json", instrumented_to_dict(ins_graph))
        ins = _json_file(tmp_path, "i.json", [0.5, 1.25])
        assert main(["run", "--program", prog, "--inputs", ins]) == 0
        # host output unchanged by the sentinel detour
        assert capsys.readouterr().out == f"out {evaluate(g, [0.5, 1.25], ACC).outputs[0]}\n"

    @pytest.mark.parametrize("name, shorthand", [("euler", "euler2"), ("runge_kutta", "rk2"), ("fir_filter", "fir")])
    def test_canonical_builtin_names(self, name, shorthand, tmp_path, capsys):
        spec = builtin_spec(shorthand)
        ins = _json_file(tmp_path, "i.json", draw_inputs(spec, substream(3, "cli", shorthand)))
        assert main(["run", "--program", shorthand, "--inputs", ins]) == 0
        want = capsys.readouterr().out
        assert main(["run", "--program", name, "--inputs", ins]) == 0
        assert capsys.readouterr().out == want

    def test_unknown_program(self, conv_inputs, capsys):
        assert main(["run", "--program", "fir9000", "--inputs", conv_inputs]) == 1
        assert "neither a file nor a builtin" in capsys.readouterr().err

    def test_invalid_json_program(self, conv_inputs, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", '{"name": "g", "nodes": [')
        assert main(["run", "--program", prog, "--inputs", conv_inputs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err == f"error: {prog}: invalid JSON at line 1 column 25: Expecting value\n"

    @pytest.mark.parametrize(
        "operands, msg",
        [(["x", "later"], "node 's': operand 'later' must come before it in the file"), (["x", "s"], "node 's': operand 's' must come before it in the file")],
        ids=["forward", "self"],
    )
    def test_operand_after_its_reader(self, operands, msg, tmp_path, capsys):
        nodes = [
            {"id": "x", "op": "input"},
            {"id": "s", "op": "add", "operands": operands},
            {"id": "later", "op": "const", "value": 1},
            {"id": "out", "op": "output", "operands": ["s"]},
        ]
        prog = _json_file(tmp_path, "g.json", {"name": "g", "type": "int16", "nodes": nodes, "inputs": ["x"], "outputs": ["out"]})
        assert main(["run", "--program", prog, "--inputs", _json_file(tmp_path, "i.json", [1])]) == 1
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_invalid_json_inputs(self, tmp_path, capsys):
        ins = _json_file(tmp_path, "i.json", "[1, 2,\n 3 4]")
        assert main(["run", "--program", "conv2x2", "--inputs", ins]) == 1
        assert capsys.readouterr().err == f"error: {ins}: invalid JSON at line 2 column 4: Expecting ',' delimiter\n"

    def test_bad_inputs_shape(self, tmp_path, capsys):
        ins = _json_file(tmp_path, "i.json", {"x": 1})
        assert main(["run", "--program", "conv2x2", "--inputs", ins]) == 1
        assert "inputs file must be a list, got {'x': 1}" in capsys.readouterr().err

        ins = _json_file(tmp_path, "j.json", [1, 2, 3])
        assert main(["run", "--program", "conv2x2", "--inputs", ins]) == 1
        assert "expected 8 inputs" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["run", "--program", "conv2x2"])
        assert e.value.code == 1
        assert "required" in capsys.readouterr().err


class TestRcc:
    def test_honest_negative(self, conv_inputs, capsys):
        code = main(["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--claimed", "110"])
        assert code == 0
        assert capsys.readouterr().out == "negative (3 rounds)\n"

    def test_off_by_one_positive(self, conv_inputs, capsys):
        code = main(["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--claimed", "111"])
        assert code == 2
        assert capsys.readouterr().out == "positive (round 1)\n"

    def test_round_three_needed(self, conv_inputs, capsys):
        argv = ["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--claimed", "125"]
        assert main(argv) == 2
        assert capsys.readouterr().out == "positive (round 3)\n"
        assert main(argv + ["--moduli", "3,5"]) == 0
        assert capsys.readouterr().out == "negative (2 rounds)\n"

    def test_composite_moduli(self, conv_inputs, capsys):
        argv = ["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--moduli", "4,9"]
        assert main(argv + ["--claimed", "110"]) == 0
        assert main(argv + ["--claimed", "146"]) == 0  # +36 hides from both
        assert main(argv + ["--claimed", "114"]) == 2

    def test_verdict_json(self, conv_inputs, tmp_path, capsys):
        out = tmp_path / "v.json"
        main(["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--claimed", "111", "--out", str(out)])
        assert json.loads(out.read_text()) == {
            "judgement": "positive",
            "failed_round": 1,
            "rounds_run": 1,
            "skipped": [],
        }

    def test_inconclusive(self, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", serialize_program(div_by_const_graph(105)))
        ins = _json_file(tmp_path, "i.json", [44])
        assert main(["rcc", "--program", prog, "--inputs", ins, "--claimed", "44"]) == 3
        assert capsys.readouterr().out == "inconclusive (all 3 rounds skipped)\n"

    def test_duplicate_moduli(self, conv_inputs, capsys):
        argv = ["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--claimed", "110", "--moduli", "3,3"]
        assert main(argv) == 1
        assert "duplicate modulus" in capsys.readouterr().err

    def test_float_program_rejected(self, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        ins = _json_file(tmp_path, "i.json", [0.5, 1.25])
        assert main(["rcc", "--program", prog, "--inputs", ins, "--claimed", "0"]) == 1
        assert "all-integer" in capsys.readouterr().err

    def test_claimed_must_be_int(self, conv_inputs, capsys):
        with pytest.raises(SystemExit) as e:
            main(["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--claimed", "x"])
        assert e.value.code == 1


class TestFbcInstrument:
    def test_auto_sites(self, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        out = tmp_path / "ins.json"
        assert main(["fbc-instrument", "--program", prog, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"instrumented floaty: 3 sentinels -> {out}\n"

        ins = instrumented_from_dict(json.loads(out.read_text()))
        assert len(ins.sentinels) == 3
        assert [s.kind.value for s in ins.sentinels] == ["add", "mul", "tan"]
        assert all(s.entry_export and s.exit_export for s in ins.sentinels)
        assert ins.graph.name == "floaty+fbc"

    def test_explicit_sites_and_params(self, tmp_path):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        out = tmp_path / "ins.json"
        argv = [
            "fbc-instrument", "--program", prog, "--sites", "a,d",
            "--kinds", "mul,add", "--n", "5", "--delta", "1e-12", "--out", str(out),
        ]
        assert main(argv) == 0
        ins = instrumented_from_dict(json.loads(out.read_text()))
        assert [(s.kind.value, s.site, s.n, s.delta) for s in ins.sentinels] == [
            ("mul", "a", 5, 1e-12),
            ("add", "d", 5, 1e-12),
        ]
        assert len(ins.sentinels[0].operands) == 5

    def test_site_kind_count_mismatch(self, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        argv = ["fbc-instrument", "--program", prog, "--sites", "a", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "3 kinds but 1 sites" in capsys.readouterr().err

    def test_writes_the_campaigns_instrumented_program(self, tmp_path, capsys):
        # one sentinel recipe: the CLI and the campaign graft the same detours for one seed
        entry = _program_entry({"name": "conv_layer", "channels": 2, "size": 6})
        prog = _json_file(tmp_path, "conv.json", serialize_program(entry.spec().graph))
        out = tmp_path / "ins.json"
        assert main(["fbc-instrument", "--program", prog, "--seed", "4", "--out", str(out)]) == 0
        want = instrumented_to_dict(build_instrumented(ScenarioConfig(seed=4), entry))
        assert out.read_text() == json.dumps(want, indent=2) + "\n"

    def test_site_in_an_earlier_detour_is_one_line(self, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        argv = ["fbc-instrument", "--program", prog, "--sites", "a,a__fbc0_s0", "--kinds", "add,mul", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: site 'a__fbc0_s0' not in graph 'floaty'\n")
        assert not (tmp_path / "o").exists()

    def test_integer_program_has_no_sites(self, tmp_path, capsys):
        argv = ["fbc-instrument", "--program", "fir", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "float sites" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, capsys):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        argv = ["fbc-instrument", "--program", prog, "--kinds", "cos", "--out", str(tmp_path / "o")]
        assert main(argv) == 1

    def test_step_count_refused_before_any_draw(self, tmp_path, monkeypatch, capsys):
        class NoDraws:
            def uniform(self, lo, hi):
                raise AssertionError("an operand was drawn")

        monkeypatch.setattr(fbc, "substream", lambda *key: NoDraws())
        argv = ["fbc-instrument", "--program", "conv_layer", "--n", "1001", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: sentinel needs n >= 1 steps and at most 1000, got 1001\n")
        assert not (tmp_path / "o").exists()


class TestFbcJudge:
    @pytest.fixture
    def instrumented(self, tmp_path):
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        out = tmp_path / "ins.json"
        main(["fbc-instrument", "--program", prog, "--out", str(out)])
        return str(out)

    def _trace(self, tmp_path, instrumented, extra=()):
        ins = _json_file(tmp_path, "i.json", [0.5, 1.25])
        trace = tmp_path / "trace.json"
        code = main(["run", "--program", instrumented, "--inputs", ins, "--out", str(trace), *extra])
        assert code == 0
        return str(trace)

    def test_exact_trace_negative(self, tmp_path, instrumented, capsys):
        trace = self._trace(tmp_path, instrumented)
        capsys.readouterr()
        assert main(["fbc-judge", "--instrumented", instrumented, "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert out.endswith("negative\n")
        assert out.count("distance=") == 3
        assert "POSITIVE" not in out

    def test_truncated_trace_positive(self, tmp_path, instrumented, capsys):
        trace = self._trace(tmp_path, instrumented, extra=["--fp-bits", "20"])
        capsys.readouterr()
        out_file = tmp_path / "verdict.json"
        code = main(["fbc-judge", "--instrumented", instrumented, "--trace", trace, "--out", str(out_file)])
        assert code == 2
        out = capsys.readouterr().out
        assert out.endswith("positive\n")
        assert "POSITIVE" in out

        doc = json.loads(out_file.read_text())
        assert doc["judgement"] == "positive"
        assert len(doc["sentinels"]) == 3
        assert any(s["positive"] for s in doc["sentinels"])

    def test_bad_trace_file(self, tmp_path, instrumented, capsys):
        bad = _json_file(tmp_path, "bad.json", {"outputs": []})
        assert main(["fbc-judge", "--instrumented", instrumented, "--trace", bad]) == 1
        assert "'outputs' and 'exports'" in capsys.readouterr().err

    def test_trace_missing_export(self, tmp_path, instrumented, capsys):
        bad = _json_file(tmp_path, "bad.json", {"outputs": [0.0], "exports": {}})
        assert main(["fbc-judge", "--instrumented", instrumented, "--trace", bad]) == 1
        assert "lacks sentinel export" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "trace,msg",
        [
            ({"outputs": 5, "exports": {}}, "'outputs' must be a list of numbers"),
            ({"outputs": [0.0], "exports": []}, "trace 'exports' must be an object, got []"),
            ({"outputs": [0.0], "exports": {"e": None}}, "trace export 'e' must be a number, got None"),
        ],
    )
    def test_malformed_trace(self, tmp_path, instrumented, capsys, trace, msg):
        bad = _json_file(tmp_path, "bad.json", trace)
        assert main(["fbc-judge", "--instrumented", instrumented, "--trace", bad]) == 1
        err = capsys.readouterr().err
        assert msg in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mutate,msg",
        [
            (lambda doc: doc["sentinels"][0].pop("kind"), "sentinels[0] lacks 'kind'"),
            (lambda doc: doc.update(sentinels=5), "'sentinels' must be a list"),
            (lambda doc: doc["sentinels"].append(3), "sentinels[3] must be an object"),
            (lambda doc: doc["sentinels"][1].update(n="x"), "sentinels[1]:"),
            (lambda doc: doc["sentinels"][0].update(exit_export=[1]), "sentinels[0]: 'exit_export' must be a string, got [1]"),
        ],
    )
    def test_malformed_instrumented_file(self, tmp_path, instrumented, capsys, mutate, msg):
        trace = self._trace(tmp_path, instrumented)
        doc = json.loads(Path(instrumented).read_text())
        mutate(doc)
        bad = _json_file(tmp_path, "bad_ins.json", doc)
        capsys.readouterr()
        assert main(["fbc-judge", "--instrumented", bad, "--trace", trace]) == 1
        err = capsys.readouterr().err
        assert msg in err and err.count("\n") == 1

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """{name: (instrumented file, inputs file)} for each file fbc-instrument writes here."""
        d = tmp_path_factory.mktemp("judge_parity")
        prog = _json_file(d, "g.json", serialize_program(float_graph()))
        conv = draw_inputs(builtin_spec("conv_layer"), substream(5, "cli", "parity"))
        files = {}
        for name, program, inputs in (("floaty", prog, [0.5, 1.25]), ("conv_layer", "conv_layer", conv)):
            out = d / f"{name}_fbc.json"
            assert main(["fbc-instrument", "--program", program, "--out", str(out)]) == 0
            files[name] = (str(out), _json_file(d, f"{name}_inputs.json", inputs))
        return files

    @staticmethod
    def _library_verdict(doc, trace_path):
        """(exit code, stdout, verdict JSON) of judge over the sentinels of the fully parsed file."""
        t = json.loads(Path(trace_path).read_text())
        v = judge(instrumented_from_dict(doc).sentinels, Trace(outputs=tuple(t["outputs"]), exports=t["exports"]))
        rows = [(r.site, r.kind.value, r.distance, r.positive) for r in v.results]
        out = "".join(f"{s} {k} distance={d:.3e} {'POSITIVE' if p else 'negative'}\n" for s, k, d, p in rows)
        sentinels = [{"kind": k, "site": s, "distance": d, "positive": p} for s, k, d, p in rows]
        return cli._EXIT_CODES[v.judgement], out + v.judgement.value + "\n", {"judgement": v.judgement.value, "sentinels": sentinels}

    @pytest.mark.parametrize("fp_bits", [None, "10", "20"])
    @pytest.mark.parametrize("name", ["floaty", "conv_layer"])
    def test_verdict_equals_library_judge(self, tmp_path, written, capsys, name, fp_bits):
        instrumented, inputs = written[name]
        trace, out_file = tmp_path / "trace.json", tmp_path / "verdict.json"
        extra = [] if fp_bits is None else ["--fp-bits", fp_bits]
        assert main(["run", "--program", instrumented, "--inputs", inputs, "--out", str(trace), *extra]) == 0
        capsys.readouterr()
        code = main(["fbc-judge", "--instrumented", instrumented, "--trace", str(trace), "--out", str(out_file)])
        got = (code, capsys.readouterr().out, json.loads(out_file.read_text()))
        assert got == self._library_verdict(json.loads(Path(instrumented).read_text()), trace)

    def test_garbled_graph_is_never_read(self, tmp_path, instrumented, capsys):
        trace = self._trace(tmp_path, instrumented, extra=["--fp-bits", "20"])
        doc = json.loads(Path(instrumented).read_text())
        doc["graph"] = {"name": "g", "nodes": "garbled"}
        garbled = _json_file(tmp_path, "garbled.json", doc)
        capsys.readouterr()
        intact = main(["fbc-judge", "--instrumented", instrumented, "--trace", trace]), capsys.readouterr()
        assert intact[0] == 2
        assert (main(["fbc-judge", "--instrumented", garbled, "--trace", trace]), capsys.readouterr()) == intact
        assert main(["run", "--program", garbled, "--inputs", _json_file(tmp_path, "i.json", [0.5, 1.25])]) == 1

    def test_inconclusive_exits_3(self, tmp_path, instrumented, monkeypatch, capsys):
        trace = self._trace(tmp_path, instrumented)
        capsys.readouterr()
        monkeypatch.setattr(cli, "judge", lambda sentinels, trace: FbcVerdict(Judgement.INCONCLUSIVE, ()))
        out_file = tmp_path / "verdict.json"
        assert main(["fbc-judge", "--instrumented", instrumented, "--trace", trace, "--out", str(out_file)]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "inconclusive"
        assert json.loads(out_file.read_text()) == {"judgement": "inconclusive", "sentinels": []}

    def test_graph_is_neither_parsed_nor_validated(self, tmp_path, instrumented, monkeypatch):
        trace = self._trace(tmp_path, instrumented)

        def forbidden(*a, **kw):
            raise AssertionError("fbc-judge read the instrumented graph")

        for module in (graph, cli, fbc):
            monkeypatch.setattr(module, "parse_program_dict", forbidden)
        monkeypatch.setattr(DFGraph, "validate", forbidden)
        assert main(["fbc-judge", "--instrumented", instrumented, "--trace", trace]) == 0


class TestBench:
    def test_quick_report_shape(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["bench", "--quick", "30", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"226 rows -> {out}\n"

        lines = out.read_text().splitlines()
        assert lines[0] == REPORT_VERSION
        assert lines[1] == "# dishonest_prob=1.0"
        assert lines[3] == "# fbc_n=3"
        # 8 config echo lines + header + 54 rcc cells * 4 rows + 2 fbc cells * 5 rows
        assert len(lines) == 1 + 8 + 1 + 216 + 10

    def test_quick_byte_identical(self, tmp_path, capsys):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        cfg = _json_file(tmp_path, "cfg.json", {"rcc": {"programs": ["conv2x2"]}, "fbc": {"programs": []}})
        main(["bench", "--quick", "40", "--config", cfg, "--out", str(a)])
        main(["bench", "--quick", "40", "--config", cfg, "--out", str(b)])
        main(["bench", "--quick", "40", "--config", cfg, "--seed", "1", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = _json_file(tmp_path, "cfg.json", {"rcc": {"programs": ["conv2x2"], "combos": [{"adder": {"kind": "loa", "k": 4}}]}, "fbc": {"programs": []}})
        assert main(["bench", "--quick", "25", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith(REPORT_VERSION + "\n")
        assert "conv2x2,loa(4)+exact,detectable," in out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_must_be_positive(self, jobs, capsys):
        assert main(["bench", "--quick", "25", "--jobs", jobs]) == 1
        assert capsys.readouterr() == ("", "error: jobs must be >= 1\n")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = _json_file(tmp_path, "cfg.json", {"trails": 10})
        assert main(["bench", "--quick", "25", "--config", cfg]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, msg",
        [
            ({"keep_records": True}, "unknown config keys: ['keep_records']"),
            (
                {"rcc": {"combos": [{"paradigm": "accurate", "adder": {"kind": "loa", "k": 4}}]}},
                "unknown backend keys: ['paradigm']",
            ),
            ({"moduli": [3.5, 5, 7]}, "bad config value: 'moduli' must be an integer, got 3.5"),
            (
                {"rcc": {"programs": [{"name": "euler", "seed": True}]}},
                "bad config value: 'seed' must be an integer, got True",
            ),
            (
                {"rcc": {"programs": [{"name": "euler", "steps": 3.0}]}},
                "bad config value: 'steps' must be an integer, got 3.0",
            ),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            (
                {"rcc": {"programs": [{"name": "euler", "steps": 10**9}]}},
                "euler: steps must be in [2, 10], got 1000000000",
            ),
            (
                {"rcc": {"programs": ["conv2x2"]}, "fbc": {"programs": [{"name": "conv_layer", "size": 10**6}]}},
                "conv_layer: parameters give 152999420000653 nodes, more than the budget of 1000000",
            ),
            ({"fbc": {"delta": -1, "programs": []}}, "delta must be positive and finite, got -1.0"),
            (
                {"rcc": {"programs": [{"name": "euler2", "label": "a"}, {"name": "rk3", "label": "a"}]}},
                "duplicate rcc program label 'a'",
            ),
            ({"fbc": {"fp_bits": [60]}}, "fp truncation bits must be in [0, 52], got 60"),
        ],
    )
    def test_rejected_config_is_one_line(self, doc, msg, tmp_path, capsys):
        cfg = _json_file(tmp_path, "cfg.json", doc)
        assert main(["bench", "--quick", "25", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_sentinel_step_count_refused_before_any_cell(self, tmp_path, monkeypatch, capsys):
        cells = []
        monkeypatch.setattr(scenario, "_run_cell", lambda cfg, builds, cell: cells.append(cell))
        cfg = _json_file(tmp_path, "cfg.json", {"fbc": {"n": 1001}})
        assert main(["bench", "--quick", "25", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr() == ("", "error: sentinel needs n >= 1 steps and at most 1000, got 1001\n")
        assert cells == [] and not (tmp_path / "r.csv").exists()

    def test_repeated_sentinel_kind_is_one_line(self, tmp_path, capsys):
        cfg = _json_file(tmp_path, "cfg.json", {"fbc": {"kinds": ["add", "add"]}})
        assert main(["bench", "--quick", "50", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: duplicate sentinel kind 'add'\n" and captured.out == ""


class TestSweep:
    def test_sweep_csv(self, tmp_path, capsys):
        cfg = _json_file(tmp_path, "cfg.json", {"trials": 50})
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--deltas", "1e-10,1e-13", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"2 rows -> {out}\n"
        lines = out.read_text().splitlines()
        assert lines[0] == REPORT_VERSION
        header = lines[1 + sum(1 for l in lines if l.startswith("# "))]
        assert header == "delta,fp_rate,fn_rate"
        assert lines[-1].startswith("1e-13,")

    def test_deltas_required(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["sweep"])
        assert e.value.code == 1

    def test_bad_delta(self, tmp_path, capsys):
        cfg = _json_file(tmp_path, "cfg.json", {"trials": 50})
        assert main(["sweep", "--config", cfg, "--deltas", "abc"]) == 1
        assert capsys.readouterr().err == "error: --deltas: 'abc' is not a number\n"
        bad_cfg = _json_file(tmp_path, "bad.json", {"trials": 0})
        assert main(["sweep", "--config", bad_cfg, "--deltas", "abc"]) == 1
        assert capsys.readouterr().err == "error: trials must be >= 1\n"  # the config is read first

    @pytest.mark.parametrize("delta", ["-1", "0", "nan", "inf"])
    def test_delta_must_be_positive(self, tmp_path, capsys, delta):
        cfg = _json_file(tmp_path, "cfg.json", {"trials": 50})
        assert main(["sweep", "--config", cfg, f"--deltas=1e-13,{delta}"]) == 1
        err = capsys.readouterr().err
        assert "delta must be positive" in err and err.count("\n") == 1


class TestEntryPoint:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 1

    @pytest.mark.parametrize(
        "argv, msg",
        [
            (["bench", "--seed", "-1", "--quick", "3"], "seed must be >= 0, got -1"),
            (["fbc-instrument", "--program", "conv_layer", "--seed", "-1", "--out", "o.json"], "seed must be >= 0, got -1"),
            (["rcc", "--program", "conv2x2", "--claimed", "110", "--moduli", "3,x"], "--moduli: 'x' is not an integer"),
            (["run", "--program", "conv2x2", "--adder", "loa:x"], "--adder: 'x' is not an integer"),
            (["run", "--program", "conv2x2", "--multiplier", "trunc_mul:x"], "--multiplier: 'x' is not an integer"),
            (
                ["fbc-instrument", "--program", "conv_layer", "--kinds", "add,foo", "--out", "o.json"],
                "--kinds: unknown sentinel kind 'foo' (choose from add, mul, tan)",
            ),
        ],
        ids=["bench-seed", "fbc-instrument-seed", "rcc-moduli", "run-adder", "run-multiplier", "fbc-instrument-kinds"],
    )
    def test_bad_flag_value_is_one_line(self, argv, msg, conv_inputs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if argv[0] in ("run", "rcc"):
            argv = [*argv, "--inputs", conv_inputs]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {msg}\n")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["run", "rcc", "fbc-instrument", "fbc-judge"])
    def test_empty_out_path_is_an_error(self, command, conv_inputs, tmp_path, capsys):
        # a job command writes the --out it is given, an empty path too, before it prints
        prog = _json_file(tmp_path, "g.json", serialize_program(float_graph()))
        instrumented, trace = tmp_path / "instrumented.json", tmp_path / "trace.json"
        main(["fbc-instrument", "--program", prog, "--out", str(instrumented)])
        main(["run", "--program", str(instrumented), "--inputs", _json_file(tmp_path, "i.json", [0.5, 1.25]), "--out", str(trace)])
        capsys.readouterr()
        argv = {
            "run": ["run", "--program", "conv2x2", "--inputs", conv_inputs],
            "rcc": ["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--claimed", "110"],
            "fbc-instrument": ["fbc-instrument", "--program", prog],
            "fbc-judge": ["fbc-judge", "--instrumented", str(instrumented), "--trace", str(trace)],
        }[command]
        assert main([*argv, "--out", ""]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    FILE_FLAGS = ["--program", "--inputs", "--config", "--instrumented", "--trace"]

    @staticmethod
    def _read_by(flag, bad, conv_inputs, tmp_path, capsys):
        """The exit code and output of a command that reads the file `bad` for `flag`."""
        instrumented = tmp_path / "ins.json"
        main(["fbc-instrument", "--program", _json_file(tmp_path, "g.json", serialize_program(float_graph())), "--out", str(instrumented)])
        capsys.readouterr()
        argv = {
            "--program": ["run", "--program", str(bad), "--inputs", conv_inputs],
            "--inputs": ["run", "--program", "conv2x2", "--inputs", str(bad)],
            "--config": ["bench", "--quick", "3", "--config", str(bad)],
            "--instrumented": ["fbc-judge", "--instrumented", str(bad), "--trace", conv_inputs],
            "--trace": ["fbc-judge", "--instrumented", str(instrumented), "--trace", str(bad)],
        }[flag]
        return main(argv), capsys.readouterr()

    @pytest.mark.parametrize("flag", FILE_FLAGS)
    def test_file_not_utf8_names_its_file(self, flag, conv_inputs, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"[1, \xff\xfe]")
        assert self._read_by(flag, bad, conv_inputs, tmp_path, capsys) == (1, ("", f"error: {bad}: not UTF-8 text (bad byte at offset 4)\n"))

    @pytest.mark.parametrize(
        "text, msg",
        [("[" * 200_000, "nested too deeply"), ("[" + "9" * 5000 + "]", "an integer has more than 4300 digits")],
        ids=["deep", "huge-integer"],
    )
    @pytest.mark.parametrize("flag", FILE_FLAGS)
    def test_deep_or_huge_json_names_its_file(self, flag, text, msg, conv_inputs, tmp_path, capsys):
        # 4300 is Python's default limit on the digits int() reads
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert self._read_by(flag, bad, conv_inputs, tmp_path, capsys) == (1, ("", f"error: {bad}: invalid JSON: {msg}\n"))

    def test_main_reuses_one_parser(self, conv_inputs, monkeypatch, capsys):
        # each call must behave as it would under a parser of its own
        calls = [
            ["run", "--program", "conv2x2", "--inputs", conv_inputs, "--adder", "loa:4"],
            ["run", "--program", "conv2x2", "--inputs", conv_inputs],  # no --adder may leak in
            ["run", "--program", "conv2x2"],  # usage error
            ["rcc", "--program", "conv2x2", "--inputs", conv_inputs, "--claimed", "110"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            return code, capsys.readouterr()

        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(outcome(argv))
        assert [code for code, _ in fresh] == [0, 0, 1, 0]
        assert fresh[0][1].out != fresh[1][1].out  # loa:4 moves conv2x2's output, so a leak would show

        built = []
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser: built.append(1) or build())
        assert [outcome(argv) for argv in calls] == fresh
        assert len(built) == 1

    def test_console_script_installed(self, tmp_path):
        # The wrapper pip generates for [project.scripts], run in a fresh
        # process, so this needs no install.
        scripts = _toml().loads(PYPROJECT.read_text())["project"]["scripts"]
        ep = EntryPoint(name="dhac", value=scripts["dhac"], group="console_scripts")
        assert ep.load() is main
        wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
        src = str(Path(dhac.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        proc = _run_positive_rcc([sys.executable, "-c", wrapper], tmp_path, env)
        assert proc.returncode == 2
        assert proc.stdout == "positive (round 1)\n"

    @pytest.mark.skipif(shutil.which("dhac") is None, reason="dhac console script not installed")
    def test_console_script_on_path(self, tmp_path):
        proc = _run_positive_rcc([shutil.which("dhac")], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == "positive (round 1)\n"


def _inside_main() -> bool:
    f = sys._getframe(1)
    while f is not None and f.f_code is not main.__code__:
        f = f.f_back
    return f is not None


class TestCollectorPause:
    """main runs each command with the cyclic collector paused, and leaves the caller's setting as it found it."""

    RCC = {  # exit code -> (program, inputs, claimed, moduli); None is a graph that divides by 105
        0: ("conv2x2", CONV_INS, "110", "3,5,7"),
        1: ("conv2x2", CONV_INS, "110", "3,3"),
        2: ("conv2x2", CONV_INS, "111", "3,5,7"),
        3: (None, [44], "44", "3,5,7"),
    }

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_restored_after_each_exit_code(self, code, caller, tmp_path, capsys):
        program, inputs, claimed, moduli = self.RCC[code]
        program = program or _json_file(tmp_path, "g.json", serialize_program(div_by_const_graph(105)))
        argv = ["rcc", "--program", program, "--inputs", _json_file(tmp_path, "i.json", inputs), "--claimed", claimed, "--moduli", moduli]
        assert main(argv) == code
        assert gc.isenabled() is caller

    def test_restored_after_usage_error(self, caller, capsys):
        with pytest.raises(SystemExit) as e:
            main(["rcc", "--program", "conv2x2"])
        assert e.value.code == 1
        assert gc.isenabled() is caller

    def test_restored_when_an_exception_escapes(self, caller, conv_inputs, monkeypatch):
        seen = []

        def boom(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_parser", None)  # the next parser binds the patched command
        monkeypatch.setattr(cli, "_cmd_run", boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["run", "--program", "conv2x2", "--inputs", conv_inputs])
        assert seen == [False]
        assert gc.isenabled() is caller

    def test_no_collection_inside_a_float_job(self, tmp_path, capsys):
        # the smallest conv_layer whose run + fbc-judge the collector interrupts when it is not paused
        g = builtin_program("conv_layer", channels=2, size=4)
        instrumented = str(tmp_path / "ins.json")
        assert main(["fbc-instrument", "--program", _json_file(tmp_path, "g.json", serialize_program(g)), "--out", instrumented]) == 0
        trace = str(tmp_path / "trace.json")
        jobs = [
            ["run", "--program", instrumented, "--inputs", _json_file(tmp_path, "x.json", [0.5] * len(g.inputs)), "--out", trace],
            ["fbc-judge", "--instrumented", instrumented, "--trace", trace],
        ]
        inside = []

        def hook(phase, info):
            if phase == "start" and _inside_main():
                inside.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.collect()  # an empty young generation, so what follows collects the same way each time
        gc.callbacks.append(hook)
        try:
            codes = [main(argv) for argv in jobs]
        finally:
            gc.callbacks.remove(hook)
            (gc.enable if was else gc.disable)()
        assert codes == [0, 0]
        assert inside == []


class TestDecodeOnce:
    """A process decodes each program once: later commands reuse a builtin by its name and a file by its bytes."""

    X = [0.5, 1.25]

    @staticmethod
    def _rewrite(path, text):
        """Write `text` over the file at `path`, keeping its size and mtime, so only its bytes change."""
        st = os.stat(path)
        Path(path).write_text(text)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert os.stat(path).st_size == st.st_size

    def test_rewritten_files_are_decoded_anew(self, tmp_path, capsys):
        ins = _json_file(tmp_path, "i.json", self.X)
        prog, instrumented, trace = (str(tmp_path / n) for n in ("g.json", "fbc.json", "trace.json"))
        plain = serialize_program(float_graph())
        host = json.dumps(instrumented_to_dict(instrument(float_graph(), [make_sentinel("add", "a", substream(0, "x"))])))
        # the second versions move the graph's constant and lift the sentinel's threshold past any distance
        versions = [(plain, host)]
        versions.append(tuple(t.replace('"value": 0.75', '"value": 0.25').replace('"delta": 1e-13', '"delta": 1e+99') for t in versions[0]))
        seen = []
        for i, (plain_text, host_text) in enumerate(versions):
            for path, text in ((prog, plain_text), (instrumented, host_text)):
                if i == 0:
                    Path(path).write_text(text)
                else:
                    self._rewrite(path, text)
            assert main(["run", "--program", prog, "--inputs", ins]) == 0
            run = capsys.readouterr().out
            assert run == f"out {evaluate(graph.parse_program(plain_text), self.X, ACC).outputs[0]}\n"
            assert main(["run", "--program", instrumented, "--inputs", ins, "--fp-bits", "20", "--out", trace]) == 0
            capsys.readouterr()
            verdict = main(["fbc-judge", "--instrumented", instrumented, "--trace", trace]), capsys.readouterr().out
            assert verdict == TestFbcJudge._library_verdict(json.loads(host_text), trace)[:2]
            seen.append((run, verdict))
        assert seen[0][0] != seen[1][0]
        assert seen[0][1][0] == 2 and seen[1][1][0] == 0

    @pytest.mark.parametrize("flag", ["--program", "--instrumented"])
    @pytest.mark.parametrize("bad", ['{"graph": {', '{"graph": {}, "sentinels": [{"kind": "cos"}]}'], ids=["json", "sentinel"])
    def test_bad_file_fails_alike_until_mended(self, flag, bad, tmp_path, capsys):
        good = _json_file(tmp_path, "good.json", instrumented_to_dict(instrument(float_graph(), [make_sentinel("mul", "m", substream(1, "x"))])))
        ins, trace = _json_file(tmp_path, "i.json", self.X), str(tmp_path / "trace.json")
        assert main(["run", "--program", good, "--inputs", ins, "--fp-bits", "10", "--out", trace]) == 0
        capsys.readouterr()

        def call(path):
            argv = ["run", "--program", path, "--inputs", ins] if flag == "--program" else ["fbc-judge", "--instrumented", path, "--trace", trace]
            return main(argv), capsys.readouterr()

        want = call(good)  # the good bytes are now the ones kept
        path = _json_file(tmp_path, "bad.json", bad)
        first = call(path)
        assert first[0] == 1 and first[1].out == "" and first[1].err.startswith("error: ") and first[1].err.count("\n") == 1
        assert call(path) == first
        Path(path).write_text(Path(good).read_text())
        assert call(path) == want

    @pytest.mark.parametrize("name", ["rk3", "conv_layer"])
    def test_builtin_graph_left_as_built(self, name, tmp_path, capsys):
        spec = builtin_spec(name)
        ins = _json_file(tmp_path, "i.json", draw_inputs(spec, substream(4, "cli", name)))
        # on the graph of the other type, fbc-instrument and rcc are refused after reading it
        for argv in (
            ["fbc-instrument", "--program", name, "--out", str(tmp_path / "fbc.json")],
            ["run", "--program", name, "--inputs", ins],
            ["run", "--program", name, "--inputs", ins, "--adder", "loa:4", "--multiplier", "log_approx", "--fp-bits", "10"],
            ["rcc", "--program", name, "--inputs", ins, "--claimed", "0"],
        ):
            main(argv)
        kept = cli._load_program(name)
        assert kept is cli._load_program(name)
        assert kept == spec.graph and kept.plan == spec.graph.plan

    def test_repeated_float_job_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        g = builtin_program("conv_layer", channels=2, size=4)
        instrumented = str(tmp_path / "fbc.json")
        # a seed no other test instruments with, so the first call decodes the file
        argv = ["fbc-instrument", "--program", _json_file(tmp_path, "g.json", serialize_program(g)), "--seed", "17", "--out", instrumented]
        assert main(argv) == 0
        capsys.readouterr()
        inputs = _json_file(tmp_path, "x.json", draw_inputs(builtin_spec("conv_layer", channels=2, size=4), substream(6, "cli", "memo")))
        trace, verdict = tmp_path / "trace.json", tmp_path / "verdict.json"
        decodes = []
        for reader in (cli._program_file, cli._key_file):
            monkeypatch.setattr(reader, "decode", lambda doc, r=reader, d=reader.decode: decodes.append(r) or d(doc))
        rounds = []
        for _ in range(3):
            codes = (
                main(["run", "--program", instrumented, "--inputs", inputs, "--fp-bits", "10", "--out", str(trace)]),
                main(["fbc-judge", "--instrumented", instrumented, "--trace", str(trace), "--out", str(verdict)]),
            )
            rounds.append((codes, capsys.readouterr(), trace.read_bytes(), verdict.read_bytes()))
            trace.unlink()
            verdict.unlink()
        assert rounds[0][0] == (0, 2)
        assert rounds[1:] == rounds[:1] * 2
        assert decodes == [cli._program_file, cli._key_file]
