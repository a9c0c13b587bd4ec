"""Interpreter: scalar/batch parity, wrapping, errors, export taps, value types."""

import math

import numpy as np
import pytest

import oracles as O
from dhac import (
    ArithBackend,
    DFGraph,
    DFNode,
    EvalError,
    InputError,
    IntUnitModel,
    Op,
    ScalarType,
    builtin_spec,
    draw_inputs,
    evaluate,
    evaluate_batch,
)
from dhac.graph import CONST16, OUTPUT16
from dhac.rcc import residues_batch
from dhac.rng import substream
from dhac.scenario import ProgramEntry, ScenarioConfig, build_instrumented, default_combos
from graphs import float_graph, int_div_graph, mixed_graph

ACC = ArithBackend.accurate()


def backend_id(b: ArithBackend) -> str:
    return "accurate" if b == ACC else b.label()


def _n(nid, op, *operands, value=None, dtype=None):
    return DFNode(id=nid, op=op, operands=tuple(operands), value=value, dtype=dtype)


def add_graph():
    nodes = [_n("x", Op.INPUT), _n("y", Op.INPUT), _n("s", Op.ADD, "x", "y"), _n("out", Op.OUTPUT, "s")]
    return DFGraph("addg", ScalarType.INT16, nodes, ["x", "y"], ["out"])


def sub_graph():
    nodes = [_n("x", Op.INPUT), _n("y", Op.INPUT), _n("s", Op.SUB, "x", "y"), _n("out", Op.OUTPUT, "s")]
    return DFGraph("subg", ScalarType.INT16, nodes, ["x", "y"], ["out"])


class TestScalarSemantics:
    def test_matches_unbounded_oracle_mod_2_16(self):
        # inputs well past the documented bounds force intermediate wrap;
        # the wrapped run must agree with big-int evaluation mod 2^16
        g = builtin_spec("fir").graph
        rng = substream(3, "wrap")
        for _ in range(50):
            ins = [int(v) for v in rng.integers(-32768, 32768, size=11)]
            got = evaluate(g, ins, ACC).outputs[0]
            unbounded, _ = O.eval_unbounded(g, ins)
            assert got == O.signed16(unbounded[0])

    def test_builtin_in_range_no_wrap(self):
        spec = builtin_spec("rk3")
        rng = substream(4, "inrange")
        for _ in range(20):
            ins = draw_inputs(spec, rng)
            got = evaluate(spec.graph, ins, ACC).outputs[0]
            unbounded, _ = O.eval_unbounded(spec.graph, ins)
            assert got == unbounded[0]

    def test_approx_adder_applied(self):
        g = add_graph()
        m = IntUnitModel("loa", 4)
        be = ArithBackend(adder=m)
        for x, y in [(1234, 567), (-5, 31), (32767, 1)]:
            assert evaluate(g, [x, y], be).outputs[0] == O.ref_loa(x, y, 4)

    def test_sub_routes_through_adder(self):
        g = sub_graph()
        m = IntUnitModel("loa", 4)
        be = ArithBackend(adder=m)
        for x, y in [(100, 3), (-100, 3), (5, -31)]:
            assert evaluate(g, [x, y], be).outputs[0] == O.ref_loa(x, -y, 4)

    def test_approx_multiplier_applied(self):
        nodes = [_n("x", Op.INPUT), _n("y", Op.INPUT), _n("p", Op.MUL, "x", "y"), _n("out", Op.OUTPUT, "p")]
        g = DFGraph("mulg", ScalarType.INT16, nodes, ["x", "y"], ["out"])
        m = IntUnitModel("log_approx")
        be = ArithBackend(multiplier=m)
        assert evaluate(g, [5, 10], be).outputs[0] == 48
        assert evaluate(g, [5, 10], ACC).outputs[0] == 50
        assert evaluate(g, [7, 13], be).outputs[0] == O.ref_mitchell(7, 13)

    def test_integer_division_exact_both_paradigms(self):
        g = int_div_graph()
        approx = ArithBackend(IntUnitModel("loa", 4), IntUnitModel("trunc_mul", 4))
        assert evaluate(g, [123, 5], ACC).outputs[0] == 123
        # the approximate multiplier corrupts p, but division itself stays exact
        p = O.ref_trunc_mul(123, 5, 4)
        if p % 5 == 0:
            assert evaluate(g, [123, 5], approx).outputs[0] == p // 5

    def test_div_by_zero(self):
        g = int_div_graph()
        with pytest.raises(EvalError, match="div-by-zero") as ei:
            evaluate(g, [5, 0], ACC)
        assert ei.value.node_id == "q"

    def test_inexact_div(self):
        nodes = [_n("x", Op.INPUT), _n("y", Op.INPUT), _n("q", Op.DIV, "x", "y"), _n("out", Op.OUTPUT, "q")]
        g = DFGraph("divg", ScalarType.INT16, nodes, ["x", "y"], ["out"])
        assert evaluate(g, [42, 7], ACC).outputs[0] == 6
        with pytest.raises(EvalError, match="inexact-div"):
            evaluate(g, [7, 2], ACC)

    def test_float_ops_and_export(self):
        import math

        g = float_graph()
        tr = evaluate(g, [0.25, 2.0], ACC)
        sd = math.atan(math.tan(0.25 + 0.75)) / 2.0 - 0.25
        assert tr.exports["ex"] == sd
        assert tr.outputs[0] == sd * 2.0

    def test_float_div_by_zero(self):
        g = float_graph()
        with pytest.raises(EvalError, match="div-by-zero"):
            evaluate(g, [0.25, 0.0], ACC)

    def test_nonfinite_result_rejected(self):
        nodes = [_n("u", Op.INPUT), _n("p", Op.MUL, "u", "u"), _n("out", Op.OUTPUT, "p")]
        g = DFGraph("ovf", ScalarType.FLOAT64, nodes, ["u"], ["out"])
        with pytest.raises(EvalError, match="non-finite"):
            evaluate(g, [1e200], ACC)

    def test_mixed_widening(self):
        import math

        g = mixed_graph()
        tr = evaluate(g, [10, 5, 9, 2], ACC)
        assert tr.outputs[0] == math.atan((10 * 3 + 5) * 0.5 + (9 - 2) ** 2)

    def test_int_const_in_float_graph_coerced(self):
        nodes = [_n("u", Op.INPUT), _n("c", Op.CONST, value=2), _n("m", Op.MUL, "u", "c"), _n("out", Op.OUTPUT, "m")]
        g = DFGraph("coerce", ScalarType.FLOAT64, nodes, ["u"], ["out"])
        r = evaluate(g, [1.5], ACC).outputs[0]
        assert isinstance(r, float) and r == 3.0

    def test_multiple_outputs_ordered(self):
        nodes = [
            _n("x", Op.INPUT),
            _n("y", Op.INPUT),
            _n("s", Op.ADD, "x", "y"),
            _n("d", Op.SUB, "x", "y"),
            _n("o1", Op.OUTPUT, "s"),
            _n("o2", Op.OUTPUT, "d"),
        ]
        g = DFGraph("two", ScalarType.INT16, nodes, ["x", "y"], ["o1", "o2"])
        assert evaluate(g, [7, 2], ACC).outputs == (9, 5)

    def test_validates_lazily(self):
        g = DFGraph("lazy", ScalarType.INT16, add_graph().nodes, ["x", "y"], ["out"])
        assert evaluate(g, [1, 2], ACC).outputs[0] == 3


def int_export_graph():
    """Every integer op, a constant divisor and an export tap."""
    nodes = [
        _n("x", Op.INPUT),
        _n("y", Op.INPUT),
        _n("c3", Op.CONST, value=3),
        _n("c1", Op.CONST, value=1),
        _n("s", Op.ADD, "x", "c3"),
        _n("d", Op.SUB, "s", "y"),
        _n("p", Op.MUL, "d", "y"),
        _n("q", Op.DIV, "p", "c1"),
        _n("ex", Op.EXPORT, "d"),
        _n("o1", Op.OUTPUT, "q"),
        _n("o2", Op.OUTPUT, "s"),
    ]
    return DFGraph("intex", ScalarType.INT16, nodes, ["x", "y"], ["o1", "o2"])


def mixed_export_graph():
    g = mixed_graph()
    nodes = [*g.nodes, _n("qx", Op.EXPORT, "q", dtype=ScalarType.INT16), _n("fx", Op.EXPORT, "fa")]
    return DFGraph("mixedex", g.dtype, nodes, g.inputs, g.outputs)


class TestPythonScalars:
    """evaluate hands back Python ints and floats, never numpy scalars."""

    @pytest.mark.parametrize(
        "backend", [ACC, *default_combos(), ArithBackend(fp_bits=10)], ids=backend_id
    )
    @pytest.mark.parametrize(
        "make, inputs",
        [
            (int_export_graph, [1234, -57]),
            (float_graph, [0.25, 2.0]),
            (mixed_export_graph, [10, 5, 9, 2]),
            (mixed_export_graph, [np.int16(10), np.int64(5), np.int32(9), np.int8(2)]),
        ],
        ids=["int", "float", "mixed", "mixed-numpy-inputs"],
    )
    def test_trace_holds_python_numbers(self, make, inputs, backend):
        g = make()
        tr = evaluate(g, inputs, backend)
        assert tr.exports
        values = {**dict(zip(g.outputs, tr.outputs)), **tr.exports}
        for nid, v in values.items():
            assert type(v) is (int if g.node_types()[nid] is ScalarType.INT16 else float), nid


class TestInputChecks:
    def test_wrong_count(self):
        with pytest.raises(InputError, match="expected 2 inputs"):
            evaluate(add_graph(), [1], ACC)

    def test_bool_rejected(self):
        with pytest.raises(InputError, match="expected an integer"):
            evaluate(add_graph(), [True, 2], ACC)

    def test_out_of_range(self):
        with pytest.raises(InputError, match="outside int16"):
            evaluate(add_graph(), [40000, 0], ACC)

    def test_float_into_int_graph(self):
        with pytest.raises(InputError, match="expected an integer"):
            evaluate(add_graph(), [1.5, 2], ACC)

    def test_nonfinite_float_input(self):
        with pytest.raises(InputError, match="non-finite"):
            evaluate(float_graph(), [float("nan"), 1.0], ACC)
        for pos, bad in ((0, np.nan), (1, np.inf)):
            cols = [np.array([0.5, 1.0]), np.array([1.0, 2.0])]
            cols[pos][1] = bad
            with pytest.raises(InputError, match=f"^input {pos}: non-finite values$"):
                evaluate_batch(float_graph(), cols, ACC)

    def test_batch_wrong_length(self):
        cols = [np.arange(5), np.arange(4)]
        with pytest.raises(InputError, match="length 5"):
            evaluate_batch(add_graph(), cols, ACC)

    def test_batch_wrong_dtype(self):
        cols = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        with pytest.raises(InputError, match="expected integers"):
            evaluate_batch(add_graph(), cols, ACC)

    @pytest.mark.parametrize(
        "col, dtype",
        [(np.array(["1.5", "2"]), "<U3"), (np.array([True, False]), "bool"), (np.array([1.5, 2.0], dtype=object), "object")],
    )
    def test_batch_float_lanes_follow_the_scalar_rule(self, col, dtype):
        # evaluate rejects '1.5' and True; evaluate_batch rejects their lanes
        with pytest.raises(InputError, match=f"input 0: expected numbers, got {dtype}"):
            evaluate_batch(float_graph(), [col, np.array([1.0, 2.0])], ACC)

    def test_int_too_large_for_a_float(self):
        with pytest.raises(InputError, match="input 0: non-finite value"):
            evaluate(float_graph(), [10**400, 1.0], ACC)

    def test_batch_scalar_column(self):
        with pytest.raises(InputError, match="input 0: expected a 1-d array"):
            evaluate_batch(add_graph(), [5, 6], ACC)

    def test_batch_out_of_range(self):
        cols = [np.array([1, 70000]), np.array([3, 4])]
        with pytest.raises(InputError, match="outside int16"):
            evaluate_batch(add_graph(), cols, ACC)


BACKENDS = [
    ACC,
    ArithBackend(IntUnitModel("loa", 4), IntUnitModel("trunc_mul", 4)),
    ArithBackend(IntUnitModel("seg_carry", 4), IntUnitModel("log_approx")),
    ArithBackend(IntUnitModel("trunc_add", 6), IntUnitModel("broken_array", 4)),
]


class TestBatchParity:
    """evaluate_batch row i must equal evaluate on row i, bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS, ids=backend_id)
    @pytest.mark.parametrize("name", ["fir", "conv2x2", "euler2", "euler3", "rk2", "rk3"])
    def test_integer_builtins(self, name, backend):
        spec = builtin_spec(name)
        cols = draw_inputs(spec, substream(11, "parity", name), 64)
        batch = evaluate_batch(spec.graph, cols, backend)
        for i in range(0, 64, 7):
            row = [int(c[i]) for c in cols]
            assert evaluate(spec.graph, row, backend).outputs[0] == batch.outputs[0][i]

    @pytest.mark.parametrize("bits", [0, 10, 20])
    def test_float_graph(self, bits):
        g = float_graph()
        backend = ArithBackend(fp_bits=bits) if bits else ACC
        rng = substream(12, "parity", "float")
        cols = [rng.uniform(-1, 1, size=40), rng.uniform(0.5, 2.0, size=40)]
        batch = evaluate_batch(g, cols, backend)
        for i in range(40):
            tr = evaluate(g, [float(cols[0][i]), float(cols[1][i])], backend)
            assert np.float64(tr.outputs[0]).tobytes() == batch.outputs[0][i].tobytes()
            assert np.float64(tr.exports["ex"]).tobytes() == batch.exports["ex"][i].tobytes()

    def test_tan_and_arctan_bit_identical(self):
        # frompyfunc keeps the batch trig on libm, same as the scalar path
        g = float_graph()
        rng = substream(13, "parity", "trig")
        cols = [rng.uniform(-1.5, 1.5, size=200), rng.uniform(1.0, 3.0, size=200)]
        batch = evaluate_batch(g, cols, ACC)
        idx = [0, 17, 99, 199]
        for i in idx:
            tr = evaluate(g, [float(cols[0][i]), float(cols[1][i])], ACC)
            assert np.float64(tr.outputs[0]).tobytes() == batch.outputs[0][i].tobytes()

    def test_trig_of_constant(self):
        # a constant stays a scalar in the lane walk; its tan/arctan must too
        nodes = [
            _n("u", Op.INPUT),
            _n("c", Op.CONST, value=0.5),
            _n("t", Op.TAN, "c"),
            _n("at", Op.ARCTAN, "c"),
            _n("s", Op.ADD, "u", "t"),
            _n("out", Op.OUTPUT, "s"),
            _n("out2", Op.OUTPUT, "at"),
        ]
        g = DFGraph("trigc", ScalarType.FLOAT64, nodes, ["u"], ["out", "out2"])
        batch = evaluate_batch(g, [np.array([1.0, 2.0])], ACC)
        for i, u in enumerate([1.0, 2.0]):
            tr = evaluate(g, [u], ACC)
            assert [np.float64(v).tobytes() for v in tr.outputs] == [o[i].tobytes() for o in batch.outputs]

    def test_mixed_graph(self):
        g = mixed_graph()
        rng = substream(14, "parity", "mixed")
        cols = [rng.integers(-50, 50, size=32) for _ in range(4)]
        batch = evaluate_batch(g, cols, ACC)
        for i in range(32):
            row = [int(c[i]) for c in cols]
            tr = evaluate(g, row, ACC)
            assert np.float64(tr.outputs[0]).tobytes() == batch.outputs[0][i].tobytes()

    def test_int_division_batch(self):
        g = int_div_graph()
        cols = [np.array([3, -11, 120]), np.array([5, 3, 7])]
        batch = evaluate_batch(g, cols, ACC)
        assert list(batch.outputs[0]) == [3, -11, 120]

    def test_batch_div_by_zero(self):
        g = int_div_graph()
        with pytest.raises(EvalError, match="div-by-zero"):
            evaluate_batch(g, [np.array([1, 2]), np.array([1, 0])], ACC)

    def test_batch_inexact_div(self):
        nodes = [_n("x", Op.INPUT), _n("y", Op.INPUT), _n("q", Op.DIV, "x", "y"), _n("out", Op.OUTPUT, "q")]
        g = DFGraph("divg2", ScalarType.INT16, nodes, ["x", "y"], ["out"])
        with pytest.raises(EvalError, match="inexact-div"):
            evaluate_batch(g, [np.array([6, 7]), np.array([3, 2])], ACC)

    def test_batch_nonfinite(self):
        nodes = [_n("u", Op.INPUT), _n("p", Op.MUL, "u", "u"), _n("out", Op.OUTPUT, "p")]
        g = DFGraph("ovf2", ScalarType.FLOAT64, nodes, ["u"], ["out"])
        with pytest.raises(EvalError, match="non-finite"):
            evaluate_batch(g, [np.array([1.0, 1e200])], ACC)


class TestPlanParity:
    """Scalar and lane walks agree on every value the trace holds."""

    @pytest.mark.parametrize("backend", default_combos(), ids=backend_id)
    @pytest.mark.parametrize("name", ["fir", "conv2x2", "euler2", "euler3", "rk2", "rk3"])
    def test_integer_builtins_every_default_combo(self, name, backend):
        spec = builtin_spec(name)
        cols = draw_inputs(spec, substream(15, "parity", name), 24)
        batch = evaluate_batch(spec.graph, cols, backend)
        for i in range(24):
            tr = evaluate(spec.graph, [int(c[i]) for c in cols], backend)
            assert tr.outputs[0] == batch.outputs[0][i]

    @pytest.mark.parametrize("bits", [0, 10, 20])
    def test_instrumented_conv_layer(self, bits):
        entry = ProgramEntry("conv_layer", "conv_layer", (("channels", 2), ("size", 6)))
        g = build_instrumented(ScenarioConfig(), entry).graph
        backend = ArithBackend(fp_bits=bits)
        cols = draw_inputs(entry.spec(), substream(16, "parity", "conv"), 8)
        batch = evaluate_batch(g, cols, backend)
        assert len(batch.outputs) == 16 and len(batch.exports) == 6
        for i in range(8):
            tr = evaluate(g, [float(c[i]) for c in cols], backend)
            assert [np.float64(v).tobytes() for v in tr.outputs] == [o[i].tobytes() for o in batch.outputs]
            assert list(tr.exports) == list(batch.exports)
            for k, v in tr.exports.items():
                assert np.float64(v).tobytes() == batch.exports[k][i].tobytes(), k


def two_zero_divisors_graph(dtype):
    """d2 comes first in the file; Kahn's order would reach d1 first, as x's consumers are visited in file order."""
    nodes = [
        _n("x", Op.INPUT),
        _n("z", Op.CONST, value=0 if dtype is ScalarType.INT16 else 0.0),
        _n("s", Op.ADD, "x", "x"),
        _n("d2", Op.DIV, "s", "z"),
        _n("d1", Op.DIV, "x", "z"),
        _n("o2", Op.OUTPUT, "d2"),
        _n("o1", Op.OUTPUT, "d1"),
    ]
    return DFGraph("twodiv", dtype, nodes, ["x"], ["o1", "o2"])


class TestErrorNamesTopologicallyFirst:
    @pytest.mark.parametrize("dtype", [ScalarType.INT16, ScalarType.FLOAT64], ids=lambda t: t.value)
    def test_two_zero_divisors(self, dtype):
        g = two_zero_divisors_graph(dtype)
        assert g.plan.ids.index("d2") < g.plan.ids.index("d1")
        x = 3 if dtype is ScalarType.INT16 else 3.0
        with pytest.raises(EvalError) as e:
            evaluate(g, [x], ACC)
        assert (e.value.reason, e.value.node_id) == ("div-by-zero", "d2")
        with pytest.raises(EvalError) as e:
            evaluate_batch(g, [np.array([x, x])], ACC)
        assert (e.value.reason, e.value.node_id) == ("div-by-zero", "d2")


def peak_live_values(plan) -> int:
    """The most non-constant values the lane walk holds at once, as it frees each after its last read."""
    is_const = [CONST16 <= code < OUTPUT16 for code in plan.codes]
    live = peak = 0
    for p, (code, a, b) in enumerate(zip(plan.codes, plan.a, plan.b)):
        live += not is_const[p]
        peak = max(peak, live)
        if code >= OUTPUT16:  # a step that reads values
            live -= sum(plan.last[q] == p and not is_const[q] for q in {a, b})
    return peak


class TestLaneMemory:
    def test_peak_follows_the_file_on_the_instrumented_conv_layer(self):
        # Kahn's order would run all 14,112 muls before any add, holding each product at once
        g = build_instrumented(ScenarioConfig(), ProgramEntry("conv_layer", "conv_layer", ())).graph
        assert peak_live_values(g.plan) <= len(g.inputs) + len(g.outputs) + 16


# ---------------------------------------------------------------------------
# float truncation: once per value where float units read it, never in the trace

FP_WIDTHS = [1, 10, 20, 52]


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


def shared_value_graph():
    """m feeds an export, an output and two float ops; the export feeds a float op too."""
    nodes = [
        _n("u", Op.INPUT),
        _n("c", Op.CONST, value=1 / 3),
        _n("m", Op.ADD, "u", "c"),
        _n("ex", Op.EXPORT, "m"),
        _n("s", Op.MUL, "m", "m"),
        _n("t", Op.TAN, "ex"),
        _n("o1", Op.OUTPUT, "m"),
        _n("o2", Op.OUTPUT, "s"),
        _n("o3", Op.OUTPUT, "t"),
    ]
    return DFGraph("shared", ScalarType.FLOAT64, nodes, ["u"], ["o1", "o2", "o3"])


def widen_graph():
    """x (int16) feeds an int16 op and, widened, a float op."""
    i16 = ScalarType.INT16
    nodes = [
        _n("x", Op.INPUT, dtype=i16),
        _n("q", Op.MUL, "x", "x", dtype=i16),
        _n("w", Op.CONST, value=1.0),
        _n("f", Op.MUL, "x", "w"),
        _n("oq", Op.OUTPUT, "q"),
        _n("of", Op.OUTPUT, "f"),
    ]
    return DFGraph("widen", ScalarType.FLOAT64, nodes, ["x"], ["oq", "of"])


def truncation_case(label):
    """(graph, input columns) for the parity tests."""
    if label == "mixed":
        rng = substream(17, "trunc", label)
        return mixed_graph(), [rng.integers(-50, 50, size=6) for _ in range(4)]
    if label == "float":
        rng = substream(17, "trunc", label)
        return float_graph(), [rng.uniform(-1, 1, size=6), rng.uniform(0.5, 2.0, size=6)]
    entry = ProgramEntry("conv_layer", "conv_layer", (("channels", 2), ("size", 6)))
    return build_instrumented(ScenarioConfig(), entry).graph, draw_inputs(entry.spec(), substream(17, "trunc", label), 3)


class TestTruncationOncePerValue:
    @pytest.mark.parametrize("bits", FP_WIDTHS)
    def test_trace_keeps_untruncated_values(self, bits):
        g = shared_value_graph()
        u = 0.7071067811865476
        t = lambda v: O.ref_trunc_mantissa(v, bits)
        m = t(u) + t(1 / 3)
        assert t(m) != m  # the truncation shows in the last bits
        want = [m, t(m) * t(m), math.tan(t(m))]
        backend = ArithBackend(fp_bits=bits)
        tr = evaluate(g, [u], backend)
        batch = evaluate_batch(g, [np.array([u, u])], backend)
        assert [_bits(v) for v in tr.outputs] == [_bits(v) for v in want] == [o[1].tobytes() for o in batch.outputs]
        assert _bits(tr.exports["ex"]) == _bits(m) == batch.exports["ex"][0].tobytes()

    @pytest.mark.parametrize("bits", [40, 52])
    def test_widened_int16_operands_truncate_after_widening(self, bits):
        g = widen_graph()
        want = O.ref_trunc_mantissa(32767.0, bits)
        assert want in (32764.0, 16384.0)  # float(32767) has 15 significant bits
        backend = ArithBackend(fp_bits=bits)
        tr = evaluate(g, [32767], backend)
        assert tr.outputs == (1, want) and type(tr.outputs[0]) is int
        batch = evaluate_batch(g, [np.array([32767, -32768])], backend)
        assert batch.outputs[1].tolist() == [want, O.ref_trunc_mantissa(-32768.0, bits)]

    @pytest.mark.parametrize("bits", FP_WIDTHS)
    @pytest.mark.parametrize("label", ["mixed", "float", "conv_layer-small+fbc"])
    def test_scalar_batch_and_reference_agree(self, label, bits):
        g, cols = truncation_case(label)
        backend = ArithBackend(fp_bits=bits)
        batch = evaluate_batch(g, cols, backend)
        for i in range(len(cols[0])):
            row = [c[i].item() for c in cols]
            tr = evaluate(g, row, backend)
            outputs, exports = O.eval_truncated(g, row, bits)
            assert [_bits(v) for v in tr.outputs] == [_bits(v) for v in outputs] == [o[i].tobytes() for o in batch.outputs]
            assert list(tr.exports) == list(exports) == list(batch.exports)
            for k, v in tr.exports.items():
                assert _bits(v) == _bits(exports[k]) == batch.exports[k][i].tobytes(), k


class TestOutputReadByAStep:
    """An output node is a value like any other: a float unit that reads it reads it truncated."""

    @pytest.mark.parametrize("bits", FP_WIDTHS)
    def test_float_unit_reads_a_truncated_output(self, bits):
        nodes = [_n("x", Op.INPUT), _n("o", Op.OUTPUT, "x"), _n("m", Op.MUL, "o", "o"), _n("om", Op.OUTPUT, "m")]
        g = DFGraph("read-output", ScalarType.FLOAT64, nodes, ["x"], ["o", "om"])
        x = 1.5 + 2.0**-52
        t = lambda v: O.ref_trunc_mantissa(v, bits)
        assert t(x) != x
        want = [x, t(x) * t(x)]
        backend = ArithBackend(fp_bits=bits)
        tr = evaluate(g, [x], backend)
        batch = evaluate_batch(g, [np.array([x, x])], backend)
        outputs, _ = O.eval_truncated(g, [x], bits)
        assert [_bits(v) for v in tr.outputs] == [_bits(v) for v in want] == [_bits(v) for v in outputs]
        assert [o[1].tobytes() for o in batch.outputs] == [_bits(v) for v in want]


# ---------------------------------------------------------------------------
# input columns of the walk's own dtype are read in place, never copied or written


def read_only(cols):
    out = [np.array(c) for c in cols]
    for c in out:
        c.flags.writeable = False
    return out


class TestReadOnlyInputColumns:
    @pytest.mark.parametrize("bits", [0, 10, 52])
    @pytest.mark.parametrize("label", ["mixed", "float", "conv_layer-small+fbc"])
    def test_evaluate_batch_bit_identical(self, label, bits):
        g, cols = truncation_case(label)
        backend = ArithBackend(fp_bits=bits)
        want, got = evaluate_batch(g, cols, backend), evaluate_batch(g, read_only(cols), backend)
        assert [o.tobytes() for o in got.outputs] == [o.tobytes() for o in want.outputs]
        assert {k: v.tobytes() for k, v in got.exports.items()} == {k: v.tobytes() for k, v in want.exports.items()}

    @pytest.mark.parametrize("name", ["fir", "euler3", "rk3"])
    def test_residues_batch_bit_identical(self, name):
        spec = builtin_spec(name)
        cols = draw_inputs(spec, substream(23, "read-only", name), 50)
        want = residues_batch(spec.graph, cols, [3, 5, 7])
        assert residues_batch(spec.graph, read_only(cols), [3, 5, 7]).tobytes() == want.tobytes()
