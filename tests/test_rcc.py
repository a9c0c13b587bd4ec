"""Residue arithmetic, modular re-evaluation, verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from dhac import (
    ArithBackend,
    DFGraph,
    DFNode,
    InputError,
    Judgement,
    ModuleSet,
    ModulusError,
    NoInverseError,
    Op,
    Residue,
    ScalarType,
    ValidationError,
    builtin_spec,
    draw_inputs,
    evaluate,
    evaluate_batch,
    evaluate_mod,
    rcc_check,
    ring_add,
    ring_div,
    ring_inv,
    ring_mul,
    ring_sub,
    to_residue,
)
from dhac import rcc
from dhac.rcc import residues_batch
from dhac.rng import substream
from graphs import div_by_const_graph, float_graph, int_div_graph, mixed_graph

ACC = ArithBackend.accurate()


def _n(nid, op, *operands, value=None, dtype=None):
    return DFNode(id=nid, op=op, operands=tuple(operands), value=value, dtype=dtype)


class TestResidue:
    def test_to_residue_python_convention(self):
        assert to_residue(-32768, 3).value == 1
        assert to_residue(-1, 7).value == 6
        assert to_residue(5, 5).value == 0
        assert to_residue(32767, 7) == Residue(32767 % 7, 7)

    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_modulus_too_small(self, m):
        with pytest.raises(ModulusError, match="must be >= 2"):
            to_residue(10, m)
        with pytest.raises(ModulusError, match="must be >= 2"):
            Residue(0, m)

    def test_value_out_of_range(self):
        with pytest.raises(ModulusError, match="out of range"):
            Residue(3, 3)
        with pytest.raises(ModulusError, match="out of range"):
            Residue(-1, 5)

    @pytest.mark.parametrize(
        "make, msg",
        [
            (lambda: Residue(2, 3.0), "modulus must be an int >= 2, got 3.0"),
            (lambda: Residue(1, True), "modulus must be an int >= 2, got True"),
            (lambda: to_residue(5, 3.0), "modulus must be an int >= 2, got 3.0"),
            (lambda: Residue(1.5, 3), "residue 1.5 out of range for modulus 3: must be an integer in [0, 3)"),
            (lambda: Residue(True, 3), "residue True out of range for modulus 3: must be an integer in [0, 3)"),
            (lambda: ring_add(Residue(1.5, 3), Residue(1, 3)), "residue 1.5 out of range for modulus 3: must be an integer in [0, 3)"),
            (lambda: ring_inv(Residue(2, 3.0)), "modulus must be an int >= 2, got 3.0"),
        ],
    )
    def test_modulus_rule_of_the_module_set(self, make, msg):
        # a residue's modulus follows ModuleSet's rule, and its value is an integer of the ring
        with pytest.raises(ModulusError) as e:
            make()
        assert str(e.value) == msg

    def test_numpy_integers_accepted(self):
        assert Residue(np.int64(2), 3) == Residue(2, 3)
        assert to_residue(7, np.int64(5)) == Residue(2, 5)
        assert to_residue(np.int16(-7), 5) == Residue(3, 5)
        assert to_residue(np.int64(2**40 + 1), 7) == to_residue(2**40 + 1, 7) == Residue((2**40 + 1) % 7, 7)

    @pytest.mark.parametrize("x", [5.7, 5.0, math.nan, math.inf, True, np.bool_(True), np.float64(2.0), "5", None])
    def test_to_residue_takes_integers_only(self, x):
        # by Residue's value rule: any integer is reduced, anything else is refused in one line
        with pytest.raises(ModulusError) as e:
            to_residue(x, 3)
        assert str(e.value) == f"cannot reduce {x!r} mod 3: must be an integer"

    def test_frozen(self):
        r = Residue(2, 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.value = 3


class TestRingOps:
    @given(st.integers(-40000, 40000), st.integers(-40000, 40000), st.integers(2, 997))
    def test_ops_match_int_arithmetic(self, a, b, m):
        ra, rb = to_residue(a, m), to_residue(b, m)
        assert ring_add(ra, rb).value == (a + b) % m
        assert ring_sub(ra, rb).value == (a - b) % m
        assert ring_mul(ra, rb).value == (a * b) % m

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusError, match="mismatch"):
            ring_add(Residue(1, 3), Residue(1, 5))
        with pytest.raises(ModulusError, match="mismatch"):
            ring_div(Residue(1, 3), Residue(1, 5))

    @given(st.integers(1, 10**6), st.sampled_from([3, 5, 7, 11, 101, 997]))
    def test_inverse_on_primes(self, a, m):
        r = to_residue(a, m)
        if r.value == 0:
            with pytest.raises(NoInverseError):
                ring_inv(r)
        else:
            inv = ring_inv(r)
            assert ring_mul(r, inv).value == 1
            assert inv.value == pow(r.value, -1, m)

    def test_composite_modulus(self):
        # units invert, zero divisors do not
        assert ring_mul(Residue(2, 9), ring_inv(Residue(2, 9))).value == 1
        assert ring_inv(Residue(5, 12)).value == 5  # 5*5 == 25 == 1 mod 12
        with pytest.raises(NoInverseError):
            ring_inv(Residue(6, 9))
        with pytest.raises(NoInverseError):
            ring_inv(Residue(4, 10))

    @given(st.integers(0, 10**4), st.integers(1, 10**4), st.sampled_from([5, 13, 499]))
    def test_div_roundtrip(self, a, b, m):
        ra = to_residue(a, m)
        rb = to_residue(b, m)
        if rb.value == 0:
            return
        assert ring_div(ring_mul(ra, rb), rb) == ra


class TestModuleSet:
    def test_default(self):
        ms = ModuleSet()
        assert ms.moduli == (3, 5, 7)
        assert list(ms) == [3, 5, 7]
        assert len(ms) == 3

    def test_composite_allowed(self):
        assert ModuleSet((4, 9)).moduli == (4, 9)

    @pytest.mark.parametrize(
        "moduli,msg",
        [
            ((), "at least one"),
            ((3, 5, 3), "duplicate"),
            ((3, 1), ">= 2"),
            ((3, True), ">= 2"),
            ((3, 5.0), ">= 2"),
        ],
    )
    def test_rejects(self, moduli, msg):
        with pytest.raises(ModulusError, match=msg):
            ModuleSet(tuple(moduli))


class TestEvaluateMod:
    @pytest.mark.parametrize("name", ["fir", "conv2x2", "euler2", "rk3"])
    @pytest.mark.parametrize("m", [3, 7, 12, 101, 65536])
    def test_matches_unbounded_oracle(self, name, m):
        spec = builtin_spec(name)
        rng = substream(5, "evalmod", name, str(m))
        for _ in range(25):
            ins = draw_inputs(spec, rng)
            outs, _ = O.eval_unbounded(spec.graph, ins)
            assert evaluate_mod(spec.graph, ins, m).value == outs[0] % m

    def test_division_with_unit_divisor(self):
        g = int_div_graph()
        assert evaluate_mod(g, [7, 5], 9).value == 7 % 9
        assert evaluate_mod(g, [-100, 3], 7).value == (-100) % 7

    def test_division_without_inverse(self):
        with pytest.raises(NoInverseError):
            evaluate_mod(int_div_graph(), [4, 5], 5)

    def test_float_graph_rejected(self):
        with pytest.raises(ValidationError, match="all-integer"):
            evaluate_mod(float_graph(), [0.5, 0.5], 7)
        with pytest.raises(ValidationError, match="all-integer"):
            evaluate_mod(mixed_graph(), [1, 2, 3, 4], 7)

    def test_multi_output_rejected(self):
        nodes = [
            _n("x", Op.INPUT),
            _n("a", Op.ADD, "x", "x"),
            _n("o1", Op.OUTPUT, "a"),
            _n("o2", Op.OUTPUT, "x"),
        ]
        g = DFGraph("two", ScalarType.INT16, nodes, ["x"], ["o1", "o2"])
        with pytest.raises(ValidationError, match="exactly one output"):
            evaluate_mod(g, [1], 7)

    def test_input_validation(self):
        g = builtin_spec("conv2x2").graph
        ok = [1] * 8
        with pytest.raises(InputError, match="expected 8 inputs"):
            evaluate_mod(g, ok[:5], 7)
        with pytest.raises(InputError, match="input 7: expected an integer, got float"):
            evaluate_mod(g, ok[:7] + [1.0], 7)
        with pytest.raises(InputError, match="input 7: expected an integer, got bool"):
            evaluate_mod(g, ok[:7] + [True], 7)
        with pytest.raises(InputError, match="outside int16"):
            evaluate_mod(g, ok[:7] + [40000], 7)

    def test_modulus_validated(self):
        with pytest.raises(ModulusError):
            evaluate_mod(builtin_spec("fir").graph, [100] * 11, 1)


class TestRccCheck:
    def test_names_first_float_node_in_file_order(self):
        # the widening mul 'm' comes before the float const 'w'; Kahn's order, which runs every const
        # before any mul, would reach 'w' first
        nodes = [
            _n("x", Op.INPUT, dtype=ScalarType.INT16),
            _n("m", Op.MUL, "x", "x"),
            _n("w", Op.CONST, value=0.5),
            _n("p", Op.MUL, "m", "w"),
            _n("out", Op.OUTPUT, "p"),
        ]
        late = DFGraph("late", ScalarType.FLOAT64, nodes, ["x"], ["out"])
        for g, want in ((mixed_graph(), "w"), (late, "m")):
            declared = {n.id: n.dtype or g.dtype for n in g.nodes}  # neither graph has an int16 output
            first = next(n.id for n in g.nodes if declared[n.id] is ScalarType.FLOAT64)
            assert first == want
            msg = f"^residue evaluation needs an all-integer graph; node '{first}' is float64$"
            with pytest.raises(ValidationError, match=msg):
                rcc_check(g, [1] * len(g.inputs), 0)

    def _honest(self, name="fir", seed=3):
        spec = builtin_spec(name)
        ins = draw_inputs(spec, substream(seed, "rcc-test", name))
        claimed = evaluate(spec.graph, ins, ACC).outputs[0]
        return spec.graph, ins, claimed

    def test_honest_negative(self):
        g, ins, claimed = self._honest()
        v = rcc_check(g, ins, claimed)
        assert v.judgement is Judgement.NEGATIVE
        assert not v.positive
        assert v.failed_round is None
        assert v.rounds_run == 3
        assert v.skipped == ()

    def test_off_by_one_caught_first_round(self):
        g, ins, claimed = self._honest()
        v = rcc_check(g, ins, claimed + 1)
        assert v.positive and v.failed_round == 1

    def test_multiple_of_15_needs_third_round(self):
        g, ins, claimed = self._honest("conv2x2")
        assert claimed + 15 <= 32767
        assert not rcc_check(g, ins, claimed + 15, ModuleSet((3, 5))).positive
        v = rcc_check(g, ins, claimed + 15, ModuleSet((3, 5, 7)))
        assert v.positive and v.failed_round == 3

    def test_blind_spot_multiple_of_105(self):
        # an offset divisible by every modulus is invisible by design
        g, ins, claimed = self._honest("conv2x2")
        assert claimed + 105 <= 32767
        assert rcc_check(g, ins, claimed + 105).judgement is Judgement.NEGATIVE

    def test_claimed_validation(self):
        g, ins, claimed = self._honest()
        with pytest.raises(InputError, match="claimed result: expected an integer"):
            rcc_check(g, ins, float(claimed))
        with pytest.raises(InputError, match="claimed result: expected an integer"):
            rcc_check(g, ins, True)
        with pytest.raises(InputError, match="outside int16"):
            rcc_check(g, ins, 2**15)

    def test_numpy_claim_accepted(self):
        g, ins, claimed = self._honest()
        assert not rcc_check(g, ins, np.int64(claimed)).positive

    def test_all_rounds_skipped_is_inconclusive(self):
        g = div_by_const_graph(105)
        v = rcc_check(g, [44], 44)
        assert v.judgement is Judgement.INCONCLUSIVE
        assert v.failed_round is None
        assert v.rounds_run == 0
        assert v.skipped == (3, 5, 7)

    def test_partial_skip_still_runs_other_rounds(self):
        g = div_by_const_graph(3)
        v = rcc_check(g, [44], 44, ModuleSet((3, 5)))
        assert v.judgement is Judgement.NEGATIVE
        assert v.rounds_run == 1
        assert v.skipped == (3,)

    def test_failed_round_counts_skipped_rounds(self):
        # round numbering follows the module list, not the rounds actually run
        g = div_by_const_graph(3)
        v = rcc_check(g, [44], 45, ModuleSet((3, 5)))
        assert v.positive
        assert v.failed_round == 2
        assert v.rounds_run == 1
        assert v.skipped == (3,)


class TestResiduesBatch:
    @pytest.mark.parametrize("name", ["fir", "conv2x2", "euler3", "rk2"])
    def test_matches_scalar(self, name):
        spec = builtin_spec(name)
        rng = substream(11, "batch-res", name)
        cols = np.stack([draw_inputs(spec, rng) for _ in range(64)], axis=1)
        for m in (3, 7, 10, 9973):
            got = residues_batch(spec.graph, list(cols), m)
            assert got.dtype == np.int64
            for r in range(64):
                assert got[r] == evaluate_mod(spec.graph, cols[:, r], m).value

    @pytest.mark.parametrize("name", ["fir", "conv2x2", "euler2", "euler3", "rk2", "rk3"])
    def test_matches_unbounded_oracle(self, name):
        # an oracle outside the walk: exact Python ints, reduced at the end
        spec = builtin_spec(name)
        cols = draw_inputs(spec, substream(13, "batch-oracle", name), 256)
        moduli = (3, 5, 7, 65521, 4294967311)
        got = residues_batch(spec.graph, cols, moduli)
        exact = [O.eval_unbounded(spec.graph, [c[r] for c in cols])[0][0] for r in range(256)]
        assert got.shape == (5, 256)
        for j, m in enumerate(moduli):
            assert got[j].tolist() == [v % m for v in exact]

    def test_subtraction_matches_unbounded_oracle(self):
        # no integer builtin subtracts, so the sub unit gets its own graph
        nodes = [
            _n("x", Op.INPUT),
            _n("y", Op.INPUT),
            _n("c", Op.CONST, value=-3),
            _n("d", Op.SUB, "x", "y"),
            _n("e", Op.MUL, "d", "c"),
            _n("f", Op.SUB, "c", "e"),
            _n("out", Op.OUTPUT, "f"),
        ]
        g = DFGraph("sub", ScalarType.INT16, nodes, ["x", "y"], ["out"])
        xs, ys = substream(14, "batch-oracle", "sub").integers(-32768, 32768, size=(2, 256))
        moduli = (3, 5, 7, 65521, 4294967311)
        got = residues_batch(g, [xs, ys], moduli)
        exact = [O.eval_unbounded(g, [x, y])[0][0] for x, y in zip(xs, ys)]
        for j, m in enumerate(moduli):
            assert got[j].tolist() == [v % m for v in exact]

    def test_division_matches_unbounded_oracle_and_marks_non_units(self):
        g = int_div_graph()
        xs = np.arange(-128, 128)
        ys = np.array([y or 1 for y in range(-100, 156)])
        moduli = (3, 5, 7, 65521, 4294967311)
        got = residues_batch(g, [xs, ys], moduli)
        for j, m in enumerate(moduli):
            for r in range(256):
                x, y = int(xs[r]), int(ys[r])
                want = O.eval_unbounded(g, [x, y])[0][0] % m if math.gcd(y, m) == 1 else -1
                assert got[j, r] == want, (m, x, y)

    def test_division_matches_scalar_and_marks_non_units(self):
        g = int_div_graph()
        xs = np.array([4, -100, 7, 0, 9, -3])
        ys = np.array([2, 3, 5, 7, 14, -7])
        moduli = (3, 5, 7, 9)
        got = residues_batch(g, [xs, ys], moduli)
        assert got.shape == (4, 6)
        for j, m in enumerate(moduli):
            for r in range(6):
                if math.gcd(int(ys[r]), m) == 1:
                    assert got[j, r] == evaluate_mod(g, [int(xs[r]), int(ys[r])], m).value
                else:
                    assert got[j, r] == -1
                    with pytest.raises(NoInverseError):
                        evaluate_mod(g, [int(xs[r]), int(ys[r])], m)

    def test_modulus_above_int32_does_not_overflow(self):
        spec = builtin_spec("rk3")
        cols = draw_inputs(spec, substream(12, "batch-res", "big"), 200)
        exact = evaluate_batch(spec.graph, cols, ACC).outputs[0]
        m = 4294967311
        got = residues_batch(spec.graph, cols, (7, m))
        assert got[0].tolist() == (exact % 7).tolist()
        assert got[1].tolist() == [int(v) % m for v in exact]

    def test_float_graph_rejected(self):
        with pytest.raises(ValidationError, match="all-integer"):
            residues_batch(float_graph(), [np.zeros(3), np.zeros(3)], 7)

    def test_column_count_checked(self):
        g = builtin_spec("fir").graph
        with pytest.raises(InputError, match="^expected 11 inputs, got 10$"):
            residues_batch(g, [np.array([1])] * 10, 7)

    def test_modulus_validated(self):
        with pytest.raises(ModulusError):
            residues_batch(builtin_spec("fir").graph, [np.array([1])] * 11, 1)

    @pytest.mark.parametrize(
        "moduli, msg",
        [([], "at least one modulus"), ([2.5], "an int >= 2, got 2.5"), ((3, 3), "duplicate modulus 3")],
    )
    def test_moduli_follow_the_module_set_rule(self, moduli, msg):
        with pytest.raises(ModulusError, match=msg):
            residues_batch(builtin_spec("conv2x2").graph, [np.array([1])] * 8, moduli)

    def test_numpy_integer_moduli(self):
        cols = [np.array([1, 2])] * 8
        want = residues_batch(builtin_spec("conv2x2").graph, cols, (3, 5))
        assert residues_batch(builtin_spec("conv2x2").graph, cols, np.array([3, 5])).tolist() == want.tolist()
        assert residues_batch(builtin_spec("conv2x2").graph, cols, np.int64(5)).tolist() == want[1].tolist()

    def test_one_vector_is_checked_once(self, monkeypatch):
        # rcc_check checks the graph once and each input once, by the scalar rule alone
        import dhac.interp as interp
        import dhac.rcc as rcc

        calls = {"graph": 0, "scalar": 0, "batch": 0}

        def count(module, name, key):
            fn = getattr(module, name)

            def wrapped(*a):
                calls[key] += 1
                return fn(*a)

            monkeypatch.setattr(module, name, wrapped)

        count(rcc, "_require_residue_graph", "graph")
        count(interp, "_check_scalar_input", "scalar")
        count(interp, "_check_batch_input", "batch")
        assert rcc_check(builtin_spec("conv2x2").graph, [2, 3, 4, 5, 6, 7, 8, 9], 110).judgement is Judgement.NEGATIVE
        assert calls == {"graph": 1, "scalar": 8, "batch": 0}

    def test_short_column_not_broadcast(self):
        cols = [np.array([1, 2, 3])] * 7 + [np.array([4])]
        with pytest.raises(InputError, match="input 7: expected a 1-d array of length 3"):
            residues_batch(builtin_spec("conv2x2").graph, cols, (3, 5, 7))

    def test_unequal_column_lengths(self):
        cols = [np.array([1, 2, 3])] * 7 + [np.array([4, 5])]
        with pytest.raises(InputError, match="length 3"):
            residues_batch(builtin_spec("conv2x2").graph, cols, (3, 5, 7))

    def test_scalar_column_rejected(self):
        with pytest.raises(InputError, match="input 0: expected a 1-d array"):
            residues_batch(builtin_spec("conv2x2").graph, [5] * 8, 7)

    def test_float_column_rejected(self):
        cols = [np.array([1, 2, 3])] * 7 + [np.array([1.5, 2, 3])]
        with pytest.raises(InputError, match="input 7: expected integers"):
            residues_batch(builtin_spec("conv2x2").graph, cols, 7)

    def test_out_of_range_column_rejected(self):
        cols = [np.array([1, 2, 3])] * 7 + [np.array([1, 40000, 3])]
        with pytest.raises(InputError, match="outside int16"):
            residues_batch(builtin_spec("conv2x2").graph, cols, 7)

    # The top modulus of each lane dtype (int16, int32, int64) and one above
    # it: the walk's lanes and its reduction bound both change at these.
    LANE_EDGES = (182, 183, 46341, 46342, 3037000500, 3037000501)

    @staticmethod
    def _chain(with_div):
        """40 arithmetic nodes, each the previous one op'd with x, y or a constant.

        It opens with (x - x + (-1)) * (-1): every lane holds m - 1, the
        largest residue, and then the largest product a lane must hold. The
        div step is (v * y) / y, exact in the integers.
        """
        steps = [("sub", "x"), ("add", "k"), ("mul", "k")]
        steps += [("mul", "x"), ("add", "y"), ("mul", "y"), ("sub", "x")] * 4
        steps += [("mul", "k"), ("mul", "j"), ("sub", "y"), ("add", "j")] * 4
        steps += [("mul", "y"), ("div", "y") if with_div else ("mul", "x"), ("sub", "j"), ("mul", "x"), ("add", "k")]
        nodes = [
            _n("x", Op.INPUT),
            _n("y", Op.INPUT),
            _n("k", Op.CONST, value=-1),
            _n("j", Op.CONST, value=32767),
        ]
        prev = "x"
        for i, (op, operand) in enumerate(steps):
            nodes.append(_n(f"v{i}", Op(op), prev, operand))
            prev = f"v{i}"
        nodes.append(_n("out", Op.OUTPUT, prev))
        assert len(steps) == 40
        return DFGraph("chain", ScalarType.INT16, nodes, ["x", "y"], ["out"])

    @staticmethod
    def _edge_inputs():
        # 256 lanes within 128 of +32767 or -32768, in a seeded order
        near = np.concatenate([np.arange(32767 - 127, 32768), np.arange(-32768, -32768 + 128)])
        rng = substream(15, "lane-edges")
        return rng.permutation(near), rng.permutation(near)

    @pytest.mark.parametrize("with_div", [False, True])
    @pytest.mark.parametrize("m", LANE_EDGES)
    def test_deep_chain_at_lane_edges_matches_unbounded_oracle(self, m, with_div):
        g = self._chain(with_div)
        xs, ys = self._edge_inputs()
        got = residues_batch(g, [xs, ys], m)
        unit = [not with_div or math.gcd(int(y), m) == 1 for y in ys]
        want = [O.eval_unbounded(g, [x, y])[0][0] % m if u else -1 for x, y, u in zip(xs, ys, unit)]
        assert got.tolist() == want
        assert any(unit)

    def test_const_only_output_broadcast(self):
        nodes = [
            _n("x", Op.INPUT),
            _n("c", Op.CONST, value=5),
            _n("out", Op.OUTPUT, "c"),
        ]
        g = DFGraph("constout", ScalarType.INT16, nodes, ["x"], ["out"])
        got = residues_batch(g, [np.array([1, 2, 3])], 3)
        assert got.tolist() == [2, 2, 2]


class TestLaneReduction:
    def test_int16_lanes_reduce_exactly_for_every_value_and_modulus(self):
        # every int16 value against every modulus the int16 lanes hold, by the rule the walk runs
        x = np.arange(-32768, 32768, dtype=np.int16)[None, :]
        wide = x.astype(np.int64)
        for lo in range(2, 183, 16):
            mods = list(range(lo, min(lo + 16, 183)))
            dtype, limit, m, recip, bound = rcc._lane_ring(mods)
            assert (dtype, limit, bound) == (np.int16, 181, max(mods) // 2)
            assert (x * recip).dtype == np.float32  # the quotient's float, by NumPy's promotion of these very arrays
            r = rcc._reduce(x, m, recip)
            assert r.dtype == np.int16
            r = r.astype(np.int64)
            assert np.all(np.abs(r) <= m // 2)
            assert np.all((wide - r) % m == 0)

    def test_wider_lanes_keep_their_edges(self):
        # the ladder still changes at 182, 46341 and 3037000500, and only int64 and object lanes divide
        assert [(dtype, limit) for dtype, limit, _ in rcc._LANES] == [(np.int16, 181), (np.int32, 46340), (np.int64, 3037000499)]
        for top, dtype, real in ((182, np.int16, np.float32), (46341, np.int32, np.float64), (3037000500, np.int64, None), (3037000501, object, None)):
            got, _, m, recip, _ = rcc._lane_ring([2, top])
            assert got is dtype and m.dtype == dtype
            assert (recip is None) if real is None else recip.dtype == real

    @pytest.mark.parametrize(
        "graph, inputs, moduli, walks, want",
        [
            (builtin_spec("conv2x2").graph, [2, 3, 4, 5, 6, 7, 8, 9], (3, 5, 7), 1, [2, 0, 5]),
            (div_by_const_graph(3), [44], (3, 5), 3, [-1, 4]),  # 3 is no unit mod 15: one walk per modulus
            (div_by_const_graph(105), [44], (3, 5, 7), 4, [-1, -1, -1]),
            (div_by_const_graph(3), [44], (3,), 1, [-1]),  # the lcm walk is the modulus's own
            (int_div_graph(), [7, 3], (4, 64), 1, [3, 7]),
            (int_div_graph(), [7, 2], (4, 64), 3, [-1, -1]),
            (int_div_graph(), [7, 3], (6, 10, 15), 4, [-1, 7, -1]),
            (int_div_graph(), [-7, 7], (6, 10, 15), 1, [5, 3, 8]),
        ],
    )
    def test_one_vector_walks_once_mod_the_lcm(self, monkeypatch, graph, inputs, moduli, walks, want):
        calls = []
        real = rcc._walk

        def walk(*args, **kw):
            calls.append(kw["lanes"])
            return real(*args, **kw)

        monkeypatch.setattr(rcc, "_walk", walk)
        assert rcc._residues(graph, inputs, moduli, lanes=False) == want
        assert calls == [False] * walks
        assert residues_batch(graph, [np.array([x]) for x in inputs], moduli)[:, 0].tolist() == want
        for m, r in zip(moduli, want):
            if r < 0:
                with pytest.raises(NoInverseError, match=f"^a divisor has no inverse mod {m}$"):
                    evaluate_mod(graph, inputs, m)
            else:
                assert evaluate_mod(graph, inputs, m) == Residue(r, m)


@pytest.mark.parametrize(
    "last, scalar_msg, lane_msg",
    [
        (None, "expected 8 inputs, got 7", "expected 8 inputs, got 7"),
        (1.5, "input 7: expected an integer, got float", "input 7: expected integers"),
        (40000, "input 7: 40000 outside int16 range", "input 7: values outside int16 range"),
    ],
    ids=["short", "float", "out-of-range"],
)
def test_every_entry_checks_inputs_by_one_rule(last, scalar_msg, lane_msg):
    g = builtin_spec("conv2x2").graph
    xs = [1] * 7 + ([] if last is None else [last])
    cols = [np.array([x]) for x in xs]
    scalar = [lambda: evaluate(g, xs, ACC), lambda: rcc_check(g, xs, 0), lambda: evaluate_mod(g, xs, 7)]
    lanes = [lambda: evaluate_batch(g, cols, ACC), lambda: residues_batch(g, cols, 7)]
    for entries, msg in ((scalar, scalar_msg), (lanes, lane_msg)):
        for entry in entries:
            with pytest.raises(InputError) as e:
                entry()
            assert str(e.value) == msg


class TestKnownFalsePositives:
    """Honest results the check flags today: the unbounded value leaves int16."""

    @pytest.mark.xfail(strict=True, reason="soundness certificate, ROADMAP item 4")
    def test_conv2x2_output_beyond_int16(self):
        g = builtin_spec("conv2x2").graph
        ins = [300] * 4 + [200] * 4
        claimed = evaluate(g, ins, ACC).outputs[0]
        assert claimed == -22144
        assert not rcc_check(g, ins, claimed).positive

    @pytest.mark.xfail(strict=True, reason="soundness certificate, ROADMAP item 4")
    def test_division_of_a_wrapped_product(self):
        nodes = [
            _n("a", Op.INPUT),
            _n("b", Op.INPUT),
            _n("c", Op.INPUT),
            _n("p", Op.MUL, "a", "b"),
            _n("q", Op.DIV, "p", "c"),
            _n("out", Op.OUTPUT, "q"),
        ]
        g = DFGraph("abc", ScalarType.INT16, nodes, ["a", "b", "c"], ["out"])
        claimed = evaluate(g, [300, 300, 2], ACC).outputs[0]
        assert not rcc_check(g, [300, 300, 2], claimed).positive
