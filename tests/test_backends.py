"""Arithmetic unit models against independent bit-level references.

Each unit has one definition that takes Python ints and int16 lanes alike;
the tests call it both ways. Lanes wrap by their dtype and ints by `wrap16`'s
formula, so the two forms must agree at the int16 edges too.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from dhac import ArithBackend, ConfigError, ErrorStats, EvalError, IntUnitModel, StatsError
from dhac import DFNode, Op, ScalarType, backend_from_dict, error_stats, evaluate, evaluate_batch
from dhac import DFGraph, default_combos, trunc_mantissa
from dhac.approx import _mitchell, add16_batch, mul16_batch, truncator

u16 = st.integers(min_value=0, max_value=0xFFFF)
s16 = st.integers(min_value=-32768, max_value=32767)


# ---------------------------------------------------------------------------
# integer adders


class TestAdders:
    def test_exact_wraps_like_int16(self):
        m = IntUnitModel("exact")
        assert add16_batch(m, 32767, 1) == -32768
        assert add16_batch(m, -32768, -1) == 32767
        assert add16_batch(m, -5, 5) == 0

    @given(u16, u16, st.integers(min_value=0, max_value=15))
    def test_loa_matches_reference(self, a, b, k):
        assert add16_batch(IntUnitModel("loa", k), a, b) == O.ref_loa(a, b, k)

    @given(u16, u16, st.integers(min_value=0, max_value=15))
    def test_trunc_add_matches_reference(self, a, b, k):
        assert add16_batch(IntUnitModel("trunc_add", k), a, b) == O.ref_trunc_add(a, b, k)

    @given(u16, u16, st.integers(min_value=2, max_value=16))
    def test_seg_carry_matches_reference(self, a, b, s):
        assert add16_batch(IntUnitModel("seg_carry", s), a, b) == O.ref_seg_carry(a, b, s)

    def test_loa_exhaustive_low_byte(self):
        m = IntUnitModel("loa", 4)
        for a in range(0, 256, 3):
            for b in range(0, 256, 5):
                assert add16_batch(m, a, b) == O.ref_loa(a, b, 4)

    def test_loa_exact_when_low_bits_disjoint(self):
        # OR equals ADD when no low bit is shared, and then no carry is lost
        m = IntUnitModel("loa", 6)
        for a, b in [(0b101010, 0b010101), (0x1230, 0x0F0F), (0, 0xFFFF)]:
            if (a & b) & 0x3F == 0:
                assert add16_batch(m, a, b) == add16_batch(IntUnitModel("exact"), a, b)

    def test_seg_carry_drops_cross_segment_carry(self):
        # 0x00FF + 0x0001 carries out of the low byte; an 8-bit segment loses it
        assert add16_batch(IntUnitModel("seg_carry", 8), 0x00FF, 0x0001) == 0x0000
        assert add16_batch(IntUnitModel("exact"), 0x00FF, 0x0001) == 0x0100

    def test_param_zero_is_exact(self):
        # each degenerate parameter computes exactly through its kind's own formula, on ints and lanes
        a, b = np.array([123, -7, 32767, -32768, 0x5555]), np.array([456, 7, 1, -1, 0x2AAB])
        want = [O.ref_exact_add(x, y) for x, y in zip(a.tolist(), b.tolist())]
        for m in (IntUnitModel("loa", 0), IntUnitModel("trunc_add", 0), IntUnitModel("seg_carry", 16)):
            assert [add16_batch(m, x, y) for x, y in zip(a.tolist(), b.tolist())] == want
            assert add16_batch(m, a, b).tolist() == want

    def test_neg16(self):
        # a - b feeds the adder -b, whose 16-bit pattern is b's two's complement
        m = IntUnitModel("exact")
        assert add16_batch(m, 0, -1) == -1
        assert add16_batch(m, 5, -5) == 0
        assert add16_batch(m, 0, -(-32768)) == -32768  # the negation wraps to itself
        assert add16_batch(IntUnitModel("loa", 4), 100, -3) == O.ref_loa(100, -3 & 0xFFFF, 4)


# ---------------------------------------------------------------------------
# integer multipliers


class TestMultipliers:
    def test_worked_example_broken_array(self):
        # 3*3 = 0b1001; dropping the two low product columns leaves 0b1000
        assert mul16_batch(IntUnitModel("broken_array", 2), 3, 3) == 8

    @given(u16, u16, st.integers(min_value=0, max_value=15))
    def test_trunc_mul_matches_reference(self, a, b, k):
        assert mul16_batch(IntUnitModel("trunc_mul", k), a, b) == O.ref_trunc_mul(a, b, k)

    @given(u16, u16, st.integers(min_value=0, max_value=15))
    def test_broken_array_matches_reference(self, a, b, k):
        assert mul16_batch(IntUnitModel("broken_array", k), a, b) == O.ref_broken_array(a, b, k)

    @given(u16, u16)
    def test_log_approx_matches_reference(self, a, b):
        assert mul16_batch(IntUnitModel("log_approx"), a, b) == O.ref_mitchell(a, b)

    def test_mitchell_never_exceeds_exact(self):
        for a in range(1, 180, 7):
            for b in range(1, 180, 5):
                assert 0 < _mitchell(a, b) <= a * b

    def test_mitchell_exact_on_powers_of_two(self):
        for i in range(8):
            for b in (1, 3, 77, 255):
                assert _mitchell(1 << i, b) == (1 << i) * b

    def test_mitchell_classic_value(self):
        assert _mitchell(5, 10) == 48  # exact product 50

    def test_trunc_mul_is_asymmetric(self):
        # only operand b loses low bits
        m = IntUnitModel("trunc_mul", 4)
        assert mul16_batch(m, 7, 16) == 112
        assert mul16_batch(m, 16, 7) == 0

    def test_trunc_mul_exact_on_multiple_of_16_b(self):
        m = IntUnitModel("trunc_mul", 4)
        for a in (3, 100, 2000):
            for b in (16, 48, 160):
                assert mul16_batch(m, a, b) == ((a * b + 2**15) % 2**16) - 2**15

    def test_param_zero_is_exact(self):
        # each degenerate parameter computes exactly through its kind's own formula, on ints and lanes
        a, b = np.array([251, -7, 32767, -32768, 0x5555]), np.array([131, 7, 3, -1, 0x2AAB])
        want = [O.signed16(x * y) for x, y in zip(a.tolist(), b.tolist())]
        for m in (IntUnitModel("trunc_mul", 0), IntUnitModel("broken_array", 0)):
            assert [mul16_batch(m, x, y) for x, y in zip(a.tolist(), b.tolist())] == want
            assert mul16_batch(m, a, b).tolist() == want
        # log_approx has no parameter and is never exact: 5 * 10 gives 48
        assert mul16_batch(IntUnitModel("log_approx"), 5, 10) == 48


# ---------------------------------------------------------------------------
# the same definitions on 4096 int16 lanes and on Python ints


class TestBatchParity:
    def rand(self, rng, n=4096):
        return rng.integers(0, 1 << 16, size=n), rng.integers(0, 1 << 16, size=n)

    @staticmethod
    def check(unit, model, a, b, ref, ints=256):
        # the lanes hold the same 16-bit patterns, read as signed int16; the first `ints` pairs also run as ints
        lanes = unit(model, a.astype(np.uint16).view(np.int16), b.astype(np.uint16).view(np.int16))
        assert lanes.dtype == np.int16
        for x, y, got in zip(a.tolist(), b.tolist(), lanes.tolist()):
            assert got == ref(x, y)
        for x, y in zip(a[:ints].tolist(), b[:ints].tolist()):
            one = unit(model, x, y)
            assert type(one) is int and one == ref(x, y)

    @pytest.mark.parametrize(
        "model",
        [
            IntUnitModel("exact"),
            IntUnitModel("loa", 1),
            IntUnitModel("loa", 4),
            IntUnitModel("loa", 15),
            IntUnitModel("trunc_add", 6),
            *(IntUnitModel("seg_carry", s) for s in range(2, 17)),  # every width; most leave an uneven top segment
        ],
    )
    def test_adders(self, model):
        ref = {
            "exact": lambda x, y: O.ref_exact_add(x, y),
            "loa": lambda x, y: O.ref_loa(x, y, model.param),
            "trunc_add": lambda x, y: O.ref_trunc_add(x, y, model.param),
            "seg_carry": lambda x, y: O.ref_seg_carry(x, y, model.param),
        }[model.kind]
        a, b = self.rand(np.random.default_rng(1))
        self.check(add16_batch, model, a, b, ref)

    @pytest.mark.parametrize(
        "model",
        [
            IntUnitModel("exact"),
            IntUnitModel("trunc_mul", 4),
            IntUnitModel("trunc_mul", 15),
            IntUnitModel("broken_array", 4),
            IntUnitModel("log_approx"),
        ],
    )
    def test_multipliers(self, model):
        ref = {
            "exact": lambda x, y: O.signed16(x * y),
            "trunc_mul": lambda x, y: O.ref_trunc_mul(x, y, model.param),
            "broken_array": lambda x, y: O.ref_broken_array(x, y, model.param),
            "log_approx": O.ref_mitchell,
        }[model.kind]
        a, b = self.rand(np.random.default_rng(2))
        a[0] = 0  # zero operands zero the mitchell product
        b[1] = 0
        self.check(mul16_batch, model, a, b, ref)

    def test_log_approx_edges(self):
        # every pair of powers of two, their neighbours, 0 and 0xFFFF: each operand's characteristic edge
        edges = sorted({0, 0xFFFF} | {v for k in range(16) for v in ((1 << k) - 1, 1 << k, (1 << k) + 1)})
        pairs = [(x, y) for x in edges for y in edges]
        # fractions i/2^t and 1 - i/2^t sum to exactly 1, where Mitchell's antilog switches branch; +-1 straddles it
        for k1 in range(1, 16):
            for k2 in range(1, 16):
                t = min(k1, k2)
                for i in {1, 1 << (t - 1), (1 << t) - 1}:
                    x, y = (1 << k1) + (i << (k1 - t)), (1 << k2) + (((1 << t) - i) << (k2 - t))
                    pairs += [(x, y), (x, y - 1), (x, y + 1)]
        a, b = (np.array(v) for v in zip(*pairs))
        self.check(mul16_batch, IntUnitModel("log_approx"), a, b, O.ref_mitchell, ints=len(pairs))

    def test_int_operand_against_lanes(self):
        # a Python-int operand (a constant of the walk) against int16 lanes, in both orders, equals the unit on ints
        consts = [-32768, -1, 0x7FFF, *(1 << k for k in range(15))]
        lanes = np.array([-32768, -32767, -1, 0, 1, 32767, *np.random.default_rng(4).integers(-32768, 32768, 58)], np.int16)
        combos = [ArithBackend(), *default_combos()]
        units = [(add16_batch, m) for m in {c.adder for c in combos}] + [(mul16_batch, m) for m in {c.multiplier for c in combos}]
        for unit, model in units:
            for c in consts:
                for got, want in [
                    (unit(model, c, lanes), [unit(model, c, y) for y in lanes.tolist()]),
                    (unit(model, lanes, c), [unit(model, x, c) for x in lanes.tolist()]),
                ]:
                    assert got.dtype == np.int16 and got.tolist() == want, (model, c)

    def test_lane_edges(self):
        # every pair of int16 edge values, on every unit kind campaigns run: int16 lanes wrap as the ints do
        edges = (-32768, -32767, -1, 0, 1, 32767)
        x, y = (np.array(v, dtype=np.int16) for v in zip(*[(p, q) for p in edges for q in edges]))
        pairs = list(zip(x.tolist(), y.tolist()))
        combos = [ArithBackend(), *default_combos()]
        for adder in {c.adder for c in combos}:
            assert add16_batch(adder, x, y).tolist() == [add16_batch(adder, p, q) for p, q in pairs], adder
            assert add16_batch(adder, x, -y).tolist() == [add16_batch(adder, p, -q) for p, q in pairs], adder
        for mul in {c.multiplier for c in combos}:
            assert mul16_batch(mul, x, y).tolist() == [mul16_batch(mul, p, q) for p, q in pairs], mul
        # both walks: sub negates -32768 to itself, a lane's or a constant's, and -32768 / -1 wraps to -32768
        n = lambda nid, op, *xs: DFNode(nid, op, xs)
        ops = [n("s", Op.ADD, "x", "y"), n("d", Op.SUB, "x", "y"), n("p", Op.MUL, "x", "y"), n("e", Op.SUB, "x", "c")]
        outs = [n(f"o{m.id}", Op.OUTPUT, m.id) for m in ops]
        nodes = [n("x", Op.INPUT), n("y", Op.INPUT), DFNode("c", Op.CONST, value=-32768), *ops, *outs]
        g = DFGraph("edges", ScalarType.INT16, nodes, ["x", "y"], [o.id for o in outs])
        for backend in combos:
            lanes = evaluate_batch(g, [x, y], backend).outputs
            assert [o.dtype for o in lanes] == [np.int64] * 4
            want = [list(evaluate(g, p, backend).outputs) for p in pairs]
            assert [list(t) for t in zip(*(o.tolist() for o in lanes))] == want
        nodes = [n("x", Op.INPUT), n("y", Op.INPUT), n("q", Op.DIV, "x", "y"), n("o", Op.OUTPUT, "q")]
        div = DFGraph("div", ScalarType.INT16, nodes, ["x", "y"], ["o"])
        x, y = np.array([-32768, -32768, 32767, 0]), np.array([-1, 1, -1, -32768])
        want = [-32768, -32768, -32767, 0]
        assert evaluate_batch(div, [x, y], ArithBackend()).outputs[0].tolist() == want
        assert [evaluate(div, p, ArithBackend()).outputs[0] for p in zip(x.tolist(), y.tolist())] == want


# ---------------------------------------------------------------------------
# configuration objects


class TestModels:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown adder kind"):
            IntUnitModel("loa2", 4).check("adder")
        with pytest.raises(ConfigError, match="unknown multiplier kind"):
            IntUnitModel("loa", 4).check("multiplier")
        with pytest.raises(ConfigError, match=r"^unknown multiplier kind '\\n' \(choose from"):  # one line
            IntUnitModel("\n").check("multiplier")

    def test_parameter_ranges(self):
        with pytest.raises(ConfigError):
            IntUnitModel("loa", 16).check("adder")
        with pytest.raises(ConfigError):
            IntUnitModel("trunc_mul", -1).check("multiplier")
        with pytest.raises(ConfigError):
            IntUnitModel("seg_carry", 1).check("adder")
        with pytest.raises(ConfigError):
            IntUnitModel("seg_carry", 17).check("adder")
        with pytest.raises(ConfigError, match="no parameter"):
            IntUnitModel("log_approx", 3).check("multiplier")
        with pytest.raises(ConfigError, match="no parameter"):
            IntUnitModel("exact", 1).check("adder")
        IntUnitModel("seg_carry", 16).check("adder")

    def test_labels(self):
        assert IntUnitModel("loa", 4).label() == "loa(4)"
        assert IntUnitModel("log_approx").label() == "log_approx"
        assert IntUnitModel("exact").label() == "exact"

    def test_fp_model_range(self):
        ArithBackend(fp_bits=0)
        ArithBackend(fp_bits=52)
        with pytest.raises(ConfigError, match=r"\[0, 52\], got 53"):
            ArithBackend(fp_bits=53)
        with pytest.raises(ConfigError):
            ArithBackend(fp_bits=-1)

    def test_backend_checks_its_units(self):
        with pytest.raises(ConfigError, match="unknown adder kind"):
            ArithBackend(adder=IntUnitModel("fast"))
        with pytest.raises(ConfigError, match="trunc_mul: parameter"):
            ArithBackend(multiplier=IntUnitModel("trunc_mul", 16))

    def test_backend_labels(self):
        assert ArithBackend.accurate() == ArithBackend()
        assert ArithBackend.accurate().label() == "exact+exact"
        b = ArithBackend(IntUnitModel("loa", 4), IntUnitModel("log_approx"))
        assert b.label() == "loa(4)+log_approx"
        b = ArithBackend(fp_bits=20)
        assert b.label() == "exact+exact+fp_trunc(20)"

    def test_backend_dict_round_trip(self):
        b = ArithBackend(IntUnitModel("seg_carry", 4), IntUnitModel("trunc_mul", 6), fp_bits=10)
        d = {"adder": {"kind": "seg_carry", "k": 4}, "multiplier": {"kind": "trunc_mul", "k": 6}, "fp_trunc_bits": 10}
        assert backend_from_dict(d) == b

    def test_backend_from_dict_defaults(self):
        assert backend_from_dict({}) == ArithBackend.accurate()

    def test_backend_from_dict_errors(self):
        with pytest.raises(ConfigError, match="'kind'"):
            backend_from_dict({"adder": {"k": 4}})
        # an unknown key is an error, not a silently exact or approximate unit
        with pytest.raises(ConfigError, match=r"unknown backend keys: \['paradigm'\]"):
            backend_from_dict({"paradigm": "accurate", "adder": {"kind": "loa", "k": 4}})
        with pytest.raises(ConfigError, match=r"unknown backend 'adder' keys: \['bits'\]"):
            backend_from_dict({"adder": {"kind": "loa", "bits": 4}})


# ---------------------------------------------------------------------------
# float mantissa truncation


def bits_of(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


class TestMantissaTruncation:
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=0, max_value=52))
    def test_matches_reference(self, x, bits):
        assert bits_of(trunc_mantissa(x, bits)) == bits_of(O.ref_trunc_mantissa(x, bits))

    def test_subnormals_and_extremes(self):
        for x in (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0):
            for bits in (1, 20, 52):
                assert bits_of(trunc_mantissa(x, bits)) == bits_of(O.ref_trunc_mantissa(x, bits))

    def test_nonfinite_pass_through(self):
        for bits in (10, 52):  # at 52, clearing a nan's payload would make it inf
            assert math.isnan(trunc_mantissa(float("nan"), bits))
            assert trunc_mantissa(float("inf"), bits) == float("inf")

    def test_zero_bits_is_identity(self):
        assert trunc_mantissa(math.pi, 0) == math.pi

    def test_truncation_moves_toward_zero_in_magnitude(self):
        for x in (1.9999, -1.9999, 3.14159e7):
            t = trunc_mantissa(x, 30)
            assert abs(t) <= abs(x)

    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e308, max_value=1e308))
    def test_batch_bit_identical(self, x):
        # the lane truncation, one mask on finite lanes, is trunc_mantissa lane by lane
        arr = np.array([x, x / 3, -x], dtype=np.float64)
        for bits in (0, 10, 42, 52):
            got = truncator(bits)[1](arr)
            want = np.array([trunc_mantissa(float(v), bits) for v in arr])
            assert got.tobytes() == want.tobytes()


class TestTruncationWidth:
    """One rule for a truncation width, [0, 52], in the backend and every truncation."""

    @pytest.mark.parametrize("bits", [-1, 53, 60, 65])  # past 52 a mask clears exponent bits, past 64 all
    def test_bad_width_refused_everywhere(self, bits):
        msg = rf"^fp truncation bits must be in \[0, 52\], got {bits}$"
        for call in (
            lambda: trunc_mantissa(3.0, bits),
            lambda: truncator(bits),
            lambda: ArithBackend(fp_bits=bits),
        ):
            with pytest.raises(ConfigError, match=msg):
                call()


def _float_op_graph(op: Op, unary: bool = False):
    """out = op(u) or op(u, v) over float64 inputs."""
    ins = ["u"] if unary else ["u", "v"]
    nodes = [DFNode(id=i, op=Op.INPUT) for i in ins]
    nodes += [DFNode(id="r", op=op, operands=tuple(ins)), DFNode(id="out", op=Op.OUTPUT, operands=("r",))]
    return DFGraph(f"fp_{op.value}", ScalarType.FLOAT64, nodes, ins, ["out"])


class TestFpOp:
    """Float ops as the interpreter applies them, as scalars and as lanes."""

    @staticmethod
    def both(graph, args, backend):
        one = evaluate(graph, args, backend).outputs[0]
        lanes = evaluate_batch(graph, [np.array([x, x]) for x in args], backend).outputs[0]
        assert type(one) is float and bits_of(one) == bits_of(lanes[0]) == bits_of(lanes[1])
        return one

    def test_operands_truncated_result_not(self):
        be = ArithBackend(fp_bits=40)
        a, b = math.pi, math.e
        ta, tb = O.ref_trunc_mantissa(a, 40), O.ref_trunc_mantissa(b, 40)
        assert self.both(_float_op_graph(Op.ADD), [a, b], be) == ta + tb
        assert self.both(_float_op_graph(Op.MUL), [a, b], be) == ta * tb
        assert self.both(_float_op_graph(Op.DIV), [a, b], be) == ta / tb

    def test_unary_ops(self):
        acc = ArithBackend.accurate()
        assert self.both(_float_op_graph(Op.TAN, unary=True), [0.5], acc) == math.tan(0.5)
        assert self.both(_float_op_graph(Op.ARCTAN, unary=True), [0.5], acc) == math.atan(0.5)

    def test_div_by_zero(self):
        g = _float_op_graph(Op.DIV)
        with pytest.raises(EvalError, match="div-by-zero") as ei:
            evaluate(g, [1.0, 0.0], ArithBackend.accurate())
        assert ei.value.node_id == "r"
        with pytest.raises(EvalError, match="div-by-zero") as ei:
            evaluate_batch(g, [np.array([1.0, 1.0]), np.array([2.0, 0.0])], ArithBackend.accurate())
        assert ei.value.node_id == "r"

    def test_truncation_can_create_zero_divisor(self):
        tiny = 5e-324  # truncating 10 bits clears the whole value
        g, fp10 = _float_op_graph(Op.DIV), ArithBackend(fp_bits=10)
        assert self.both(g, [tiny, tiny], ArithBackend.accurate()) == 1.0
        with pytest.raises(EvalError, match="div-by-zero") as ei:
            evaluate(g, [tiny, tiny], fp10)
        assert ei.value.node_id == "r"
        with pytest.raises(EvalError, match="div-by-zero") as ei:
            evaluate_batch(g, [np.array([1.0, tiny]), np.array([1.0, tiny])], fp10)
        assert ei.value.node_id == "r"


# ---------------------------------------------------------------------------
# error statistics


class TestErrorStats:
    def test_identical_sequences(self):
        s = error_stats([1, 2, 3], [1, 2, 3])
        assert s == ErrorStats(n=3, mre=0.0, max_rel_err=0.0, zero_error_fraction=1.0)

    def test_integer_epsilon_guards_zero_reference(self):
        s = error_stats([0, 10], [1, 10])
        assert s.mre == pytest.approx(0.5)  # |1-0|/max(0,1) = 1, then averaged
        assert s.max_rel_err == 1.0
        assert s.zero_error_fraction == 0.5

    def test_float_epsilon(self):
        from dhac.graph import ScalarType

        s = error_stats([2.0], [1.0], ScalarType.FLOAT64)
        assert s.mre == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(StatsError, match="mismatch"):
            error_stats([1, 2], [1])

    def test_empty(self):
        with pytest.raises(StatsError, match="empty"):
            error_stats([], [])
