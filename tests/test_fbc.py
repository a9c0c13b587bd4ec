"""Sentinel construction, grafting, round trips, judging, site picking."""

import math
import operator
import struct

import pytest

import oracles as O
from dhac import (
    ArithBackend,
    DFGraph,
    DFNode,
    InstrumentedGraph,
    Judgement,
    Op,
    ScalarType,
    Sentinel,
    SentinelKind,
    SiteError,
    Trace,
    TraceError,
    ValidationError,
    auto_sites,
    builtin_spec,
    draw_inputs,
    evaluate,
    evaluate_batch,
    instrument,
    judge,
    make_sentinel,
    program_to_dict,
)
from dhac.fbc import (
    MAX_STEPS,
    detour_steps,
    instrumented_from_dict,
    instrumented_to_dict,
    sentinel_distance,
    sentinels_from_dict,
)
from dhac.rng import substream
from graphs import float_graph, mixed_graph

ACC = ArithBackend.accurate()
KINDS = [SentinelKind.ADDITION, SentinelKind.MULTIPLICATION, SentinelKind.TAN_ARCTAN]


def bits(x):
    return struct.pack("<d", x)


def _sentinel(kind, site="m", seed=7, **kw):
    return make_sentinel(kind, site, substream(seed, "t-fbc", str(kind)), **kw)


def _roundtrip(s, x, fp_bits=0):
    """(restored, distance) of s's detour grafted onto a graph whose one input is its site."""
    nodes = [DFNode(id=s.site, op=Op.INPUT), DFNode(id="out", op=Op.OUTPUT, operands=(s.site,))]
    ins = instrument(DFGraph("one", ScalarType.FLOAT64, nodes, [s.site], ["out"]), [s])
    backend = ArithBackend(fp_bits=fp_bits) if fp_bits else ACC
    trace = evaluate(ins.graph, [x], backend)
    placed = ins.sentinels[0]
    assert trace.exports[placed.entry_export] == x
    restored = trace.exports[placed.exit_export]
    return restored, abs(x - restored)


def _oracle_detour(s, x, fp_bits=0):
    """The detour as plain float math over oracle-truncated operands."""
    tr = lambda v: O.ref_trunc_mantissa(v, fp_bits)
    if s.kind is SentinelKind.TAN_ARCTAN:
        return math.tan(tr(math.atan(tr(x))))
    fwd, back = (operator.add, operator.sub) if s.kind is SentinelKind.ADDITION else (operator.mul, operator.truediv)
    v = x
    for r in s.operands:
        v = fwd(tr(v), tr(r))
    for r in reversed(s.operands):
        v = back(tr(v), tr(r))
    return v


class TestSentinel:
    def test_tan_shape_enforced(self):
        with pytest.raises(ValidationError, match="tan sentinel"):
            Sentinel(kind=SentinelKind.TAN_ARCTAN, site="m", n=2, operands=())
        with pytest.raises(ValidationError, match="tan sentinel"):
            Sentinel(kind=SentinelKind.TAN_ARCTAN, site="m", n=1, operands=(0.5,))

    def test_step_count(self):
        with pytest.raises(ValidationError, match="n >= 1"):
            Sentinel(kind=SentinelKind.ADDITION, site="m", n=0, operands=())
        with pytest.raises(ValidationError, match="expected 3 operands"):
            Sentinel(kind=SentinelKind.ADDITION, site="m", n=3, operands=(0.5,))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_mul_operands_open_unit_interval(self, bad):
        with pytest.raises(ValidationError, match="\\(0, 1\\)"):
            Sentinel(kind=SentinelKind.MULTIPLICATION, site="m", n=2, operands=(0.5, bad))
        # add sentinels have no such restriction
        Sentinel(kind=SentinelKind.ADDITION, site="m", n=2, operands=(0.5, bad))

    @pytest.mark.parametrize("kind", ["add", "mul", None, 0])
    def test_kind_must_be_a_sentinel_kind(self, kind):
        # a kind spelled as a string would build some other detour
        with pytest.raises(ValidationError) as e:
            Sentinel(kind=kind, site="m", n=1, operands=(0.5,))
        assert str(e.value) == f"sentinel kind must be a SentinelKind, got {kind!r}"

    @pytest.mark.parametrize("delta", [0.0, -1e-13, math.inf, math.nan])
    def test_delta_positive(self, delta):
        with pytest.raises(ValidationError, match="delta"):
            Sentinel(kind=SentinelKind.TAN_ARCTAN, site="m", n=1, operands=(), delta=delta)


class TestMakeSentinel:
    def test_deterministic(self):
        a = make_sentinel("add", "m", substream(3, "s"), n=4, delta=1e-12)
        b = make_sentinel("add", "m", substream(3, "s"), n=4, delta=1e-12)
        assert a == b
        assert a.n == 4 and len(a.operands) == 4 and a.delta == 1e-12

    def test_tan_ignores_n(self):
        s = _sentinel("tan", n=5)
        assert s.kind is SentinelKind.TAN_ARCTAN
        assert s.n == 1 and s.operands == ()

    def test_mul_operands_in_unit_interval(self):
        s = _sentinel(SentinelKind.MULTIPLICATION, n=8)
        assert all(0.0 < r < 1.0 for r in s.operands)

    def test_kind_spelled_out(self):
        assert _sentinel("mul").kind is SentinelKind.MULTIPLICATION
        with pytest.raises(ValidationError, match="^kind: unknown sentinel kind 'cos' \\(choose from add, mul, tan\\)$"):
            _sentinel("cos")

    @pytest.mark.parametrize("kind", ["bogus", "ADD", None, ["add"], 1])
    def test_unknown_kind_is_one_validation_error(self, kind):
        with pytest.raises(ValidationError) as e:
            make_sentinel(kind, "m", substream(0, "s"))
        assert str(e.value) == f"kind: unknown sentinel kind {kind!r} (choose from add, mul, tan)"


class TestStepBound:
    """A sentinel takes 1 to MAX_STEPS steps: longer mul detours underflow honest taps."""

    class NoDraws:
        def uniform(self, lo, hi):
            raise AssertionError("an operand was drawn")

    @pytest.mark.parametrize("n", [0, MAX_STEPS + 1])
    @pytest.mark.parametrize("kind", KINDS)
    def test_make_sentinel_refuses_before_drawing(self, kind, n):
        with pytest.raises(ValidationError) as e:
            make_sentinel(kind, "m", self.NoDraws(), n=n)
        assert str(e.value) == f"sentinel needs n >= 1 steps and at most 1000, got {n}"

    def test_file_sentinel_refused(self):
        s = _sentinel("add", site="a", n=MAX_STEPS)
        doc = instrumented_to_dict(instrument(float_graph(), [s]))
        doc["sentinels"][0].update(n=MAX_STEPS + 1, operands=[*s.operands, 1e-6])
        with pytest.raises(ValidationError, match="^sentinel needs n >= 1 steps and at most 1000, got 1001$"):
            sentinels_from_dict(doc)

    @pytest.mark.parametrize("kind", [SentinelKind.ADDITION, SentinelKind.MULTIPLICATION])
    def test_longest_detour_flags_no_honest_run(self, kind):
        # a one-mul float job whose 2,000 honest lanes tap values in about +-1.5
        nodes = [DFNode("x", Op.INPUT), DFNode("y", Op.INPUT), DFNode("m", Op.MUL, ("x", "y")), DFNode("out", Op.OUTPUT, ("m",))]
        g = DFGraph("one_mul", ScalarType.FLOAT64, nodes, ["x", "y"], ["out"])
        ins = instrument(g, [_sentinel(kind, n=MAX_STEPS)])
        rng = substream(11, "t-fbc", "longest")
        cols = [rng.uniform(-1.5, 1.5, 2000), rng.uniform(-1.0, 1.0, 2000)]
        _, flag = sentinel_distance(ins.sentinels[0], evaluate_batch(ins.graph, cols, ACC).exports)
        assert not flag.any()


class TestSteps:
    @staticmethod
    def _steps(s):  # each step's op and operand value
        return [(op, None if j is None else s.operands[j]) for op, j in detour_steps(s)]

    def test_add_structure(self):
        s = Sentinel(kind=SentinelKind.ADDITION, site="m", n=3, operands=(0.5, 0.25, 2.0))
        assert self._steps(s) == [(Op.ADD, 0.5), (Op.ADD, 0.25), (Op.ADD, 2.0), (Op.SUB, 2.0), (Op.SUB, 0.25), (Op.SUB, 0.5)]

    def test_mul_structure(self):
        s = Sentinel(kind=SentinelKind.MULTIPLICATION, site="m", n=2, operands=(0.5, 0.75))
        assert self._steps(s) == [(Op.MUL, 0.5), (Op.MUL, 0.75), (Op.DIV, 0.75), (Op.DIV, 0.5)]

    def test_tan_structure(self):
        s = Sentinel(kind=SentinelKind.TAN_ARCTAN, site="m", n=1, operands=())
        assert detour_steps(s) == [(Op.ARCTAN, None), (Op.TAN, None)]


class TestRoundtrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_arithmetic_stays_under_threshold(self, kind):
        s = _sentinel(kind)
        rng = substream(9, "rt", s.kind.value)
        for _ in range(200):
            x = float(rng.uniform(-4.0, 4.0))
            restored, d = _roundtrip(s, x)
            assert d == abs(x - restored)
            assert d < 1e-14

    def test_matches_plain_float_chain(self):
        s = _sentinel("add", n=3)
        x = 1.375
        v = x
        for r in s.operands:
            v = v + r
        for r in reversed(s.operands):
            v = v - r
        assert bits(_roundtrip(s, x)[0]) == bits(v)

        t = _sentinel("tan")
        assert bits(_roundtrip(t, x)[0]) == bits(math.tan(math.atan(x)))

    def test_truncated_arithmetic_drifts(self):
        s = _sentinel("mul", n=3)
        x = 1.2345678901234
        _, d_exact = _roundtrip(s, x)
        _, d_fp10 = _roundtrip(s, x, 10)
        _, d_fp20 = _roundtrip(s, x, 20)
        assert d_exact < 1e-14 < d_fp10 < d_fp20

    def test_truncation_matches_oracle_chain(self):
        s = _sentinel("mul", n=2)
        tr = lambda v: O.ref_trunc_mantissa(v, 20)
        x = 0.816406231
        v = x
        for r in s.operands:
            v = tr(v) * tr(r)
        for r in reversed(s.operands):
            v = tr(v) / tr(r)
        assert bits(_roundtrip(s, x, 20)[0]) == bits(v)


class TestInstrument:
    def _one(self, kind="add", site="a"):
        g = float_graph()
        s = _sentinel(kind, site=site)
        return g, instrument(g, [s])

    def test_ids_and_exports(self):
        g, ins = self._one()
        s = ins.sentinels[0]
        assert ins.graph.name == f"{g.name}+fbc"
        assert s.entry_export == "a__fbc0_in"
        assert s.exit_export == "a__fbc0_out"
        ids = {n.id for n in ins.graph.nodes}
        assert {"a__fbc0_s0", "a__fbc0_s5", "a__fbc0_r2"} <= ids
        assert "a__fbc0_s6" not in ids

    def test_host_untouched(self):
        g, ins = self._one()
        host = {n.id: n for n in g.nodes}
        for n in ins.graph.nodes:
            if n.id in host:
                assert n == host[n.id]
        assert ins.graph.inputs == g.inputs
        assert ins.graph.outputs == g.outputs

    def test_multiple_sentinels_indexed(self):
        g = float_graph()
        ss = [_sentinel("add", site="a"), _sentinel("tan", site="m")]
        ins = instrument(g, ss)
        assert ins.sentinels[0].entry_export == "a__fbc0_in"
        assert ins.sentinels[1].entry_export == "m__fbc1_in"

    def test_unknown_site(self):
        g = float_graph()
        with pytest.raises(SiteError, match="not in graph"):
            instrument(g, [_sentinel("add", site="nope")])

    def test_integer_site(self):
        with pytest.raises(SiteError, match="float64"):
            instrument(mixed_graph(), [_sentinel("add", site="m")])

    def test_duplicate_site(self):
        g = float_graph()
        with pytest.raises(SiteError, match="duplicate"):
            instrument(g, [_sentinel("add", site="a"), _sentinel("mul", site="a")])

    def test_site_in_an_earlier_detour(self):
        # a site must be a host node: an id the first detour placed is not one
        with pytest.raises(SiteError, match="site 'a__fbc0_s0' not in graph 'floaty'"):
            instrument(float_graph(), [_sentinel("add", site="a"), _sentinel("mul", site="a__fbc0_s0")])

    def test_id_collision(self):
        nodes = [
            DFNode(id="u", op=Op.INPUT, operands=()),
            DFNode(id="a", op=Op.ADD, operands=("u", "u")),
            DFNode(id="a__fbc0_in", op=Op.EXPORT, operands=("a",)),
            DFNode(id="out", op=Op.OUTPUT, operands=("a",)),
        ]
        g = DFGraph("clash", ScalarType.FLOAT64, nodes, ["u"], ["out"])
        with pytest.raises(SiteError, match="collision"):
            instrument(g, [_sentinel("add", site="a")])

    def test_first_collision_in_node_order_is_named(self):
        # the detour is its consts, entry export, steps and exit export, in that order
        nodes = [
            DFNode(id="u", op=Op.INPUT, operands=()),
            DFNode(id="a", op=Op.ADD, operands=("u", "u")),
            DFNode(id="a__fbc0_out", op=Op.EXPORT, operands=("a",)),
            DFNode(id="a__fbc0_r1", op=Op.EXPORT, operands=("a",)),
            DFNode(id="out", op=Op.OUTPUT, operands=("a",)),
        ]
        g = DFGraph("clash", ScalarType.FLOAT64, nodes, ["u"], ["out"])
        with pytest.raises(SiteError, match="^instrumentation id collision: a__fbc0_r1$"):
            instrument(g, [_sentinel("add", site="a")])

    @pytest.mark.parametrize("backend", [ACC, ArithBackend(fp_bits=10)])
    def test_host_outputs_bit_equal(self, backend):
        g = float_graph()
        ins = instrument(g, [_sentinel(k, site=site) for k, site in [("add", "a"), ("mul", "d"), ("tan", "m")]])
        rng = substream(13, "noninterf")
        for _ in range(25):
            u, v = float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2))
            plain = evaluate(g, [u, v], backend)
            rich = evaluate(ins.graph, [u, v], backend)
            assert bits(plain.outputs[0]) == bits(rich.outputs[0])
            assert bits(plain.exports["ex"]) == bits(rich.exports["ex"])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("fp_bits", [0, 10])
    def test_graph_detour_matches_roundtrip_helper(self, kind, fp_bits):
        g = float_graph()
        s = _sentinel(kind, site="sd")
        ins = instrument(g, [s])
        placed = ins.sentinels[0]
        backend = ACC if fp_bits == 0 else ArithBackend(fp_bits=fp_bits)
        trace = evaluate(ins.graph, [0.5, 1.25], backend)
        tapped = trace.exports[placed.entry_export]
        assert bits(trace.exports[placed.exit_export]) == bits(_oracle_detour(s, tapped, fp_bits))


class TestJudge:
    def _placed(self, delta=1e-13):
        g = float_graph()
        s = _sentinel("add", site="a")
        s = Sentinel(kind=s.kind, site=s.site, n=s.n, operands=s.operands, delta=delta)
        return instrument(g, [s])

    def _trace(self, ins, a, b):
        s = ins.sentinels[0]
        return Trace(outputs=(0.0,), exports={s.entry_export: a, s.exit_export: b, "ex": 0.0})

    def test_negative_below_threshold(self):
        ins = self._placed()
        v = judge(ins.sentinels, self._trace(ins, 1.0, 1.0 + 1e-14))
        assert v.judgement is Judgement.NEGATIVE
        assert not v.positive
        r = v.results[0]
        assert (r.kind, r.site, r.positive) == (SentinelKind.ADDITION, "a", False)
        assert r.distance == abs(1.0 - (1.0 + 1e-14))

    def test_boundary_distance_is_positive(self):
        ins = self._placed(delta=0.25)
        assert judge(ins.sentinels, self._trace(ins, 1.0, 1.25)).positive
        assert not judge(ins.sentinels, self._trace(ins, 1.0, 1.2499)).positive

    @pytest.mark.parametrize("weird", [math.inf, math.nan])
    def test_non_finite_is_positive(self, weird):
        ins = self._placed()
        v = judge(ins.sentinels, self._trace(ins, 1.0, weird))
        assert v.positive and v.results[0].positive

    def test_missing_export(self):
        ins = self._placed()
        t = Trace(outputs=(0.0,), exports={ins.sentinels[0].entry_export: 1.0})
        with pytest.raises(TraceError, match="lacks sentinel export"):
            judge(ins.sentinels, t)

    def test_uninstrumented_sentinel(self):
        raw = InstrumentedGraph(graph=float_graph(), sentinels=(_sentinel("add", site="a"),))
        with pytest.raises(TraceError, match="never instrumented"):
            judge(raw.sentinels, Trace(outputs=(), exports={}))

    def test_one_bad_sentinel_flips_verdict(self):
        g = float_graph()
        ins = instrument(g, [_sentinel("add", site="a"), _sentinel("mul", site="d")])
        s0, s1 = ins.sentinels
        t = Trace(
            outputs=(0.0,),
            exports={
                s0.entry_export: 1.0,
                s0.exit_export: 1.0,
                s1.entry_export: 1.0,
                s1.exit_export: 1.0 + 1e-9,
            },
        )
        v = judge(ins.sentinels, t)
        assert v.positive
        assert [r.positive for r in v.results] == [False, True]

    def test_end_to_end_exact_run_is_negative(self):
        g = float_graph()
        ins = instrument(g, [_sentinel(k, site=s) for k, s in [("add", "a"), ("mul", "d"), ("tan", "m")]])
        v = judge(ins.sentinels, evaluate(ins.graph, [0.5, 1.25], ACC))
        assert v.judgement is Judgement.NEGATIVE

    def test_end_to_end_truncated_run_is_positive(self):
        g = float_graph()
        ins = instrument(g, [_sentinel("mul", site="m")])
        v = judge(ins.sentinels, evaluate(ins.graph, [0.5, 1.25], ArithBackend(fp_bits=20)))
        assert v.positive


class TestAutoSites:
    def test_prefers_nodes_feeding_outputs(self):
        g = float_graph()
        assert auto_sites(g, 1) == ["m"]
        assert auto_sites(g, 2) == ["m", "a"]
        assert auto_sites(g, 4) == ["m", "a", "d", "sd"]

    def test_spread_over_pool(self):
        assert auto_sites(mixed_graph(), 2) == ["fm", "fa"]

    def test_too_few_sites(self):
        with pytest.raises(SiteError, match="^graph 'floaty' has only 4 float sites, need 5$"):
            auto_sites(float_graph(), 5)
        with pytest.raises(SiteError, match="only 0 float sites"):
            auto_sites(builtin_spec("fir").graph, 1)

    def test_conv_layer_sites_are_usable(self):
        g = builtin_spec("conv_layer").graph
        sites = auto_sites(g, 3)
        assert len(set(sites)) == 3
        instrument(g, [_sentinel("add", site=s) for s in sites])


class TestFileRoundTrip:
    def test_round_trip(self):
        g = float_graph()
        ins = instrument(g, [_sentinel("mul", site="a"), _sentinel("tan", site="m")])
        back = instrumented_from_dict(instrumented_to_dict(ins))
        assert back.sentinels == ins.sentinels
        # dtype tags matching the graph default are dropped on the way out,
        # so compare the serialized form, not the raw nodes
        assert program_to_dict(back.graph) == program_to_dict(ins.graph)
        assert back.graph.name == ins.graph.name

    def test_missing_keys(self):
        with pytest.raises(ValidationError, match="'graph' and 'sentinels'"):
            instrumented_from_dict({"graph": {}})
        with pytest.raises(ValidationError, match="'graph' and 'sentinels'"):
            instrumented_from_dict({"sentinels": []})

    def test_sentinels_are_read_without_the_graph(self):
        ins = instrument(float_graph(), [_sentinel("mul", site="a"), _sentinel("tan", site="m")])
        doc = instrumented_to_dict(ins)
        assert sentinels_from_dict(doc) == instrumented_from_dict(doc).sentinels == ins.sentinels
        doc["graph"] = "garbled"
        assert sentinels_from_dict(doc) == ins.sentinels
        with pytest.raises(ValidationError, match="'graph' and 'sentinels'"):
            sentinels_from_dict({"sentinels": []})

    def test_judgeable_after_round_trip(self):
        g = float_graph()
        ins = instrument(g, [_sentinel("add", site="a")])
        back = instrumented_from_dict(instrumented_to_dict(ins))
        v = judge(back.sentinels, evaluate(back.graph, [0.5, 1.25], ACC))
        assert not v.positive
