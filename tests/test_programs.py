"""Builtin programs: shapes, closed forms, input bounds, determinism, pinned bytes."""

import hashlib
import itertools

import numpy as np
import pytest

import oracles as O
from dhac import (
    ArithBackend,
    BuiltinError,
    ScalarType,
    builtin_program,
    builtin_spec,
    draw_inputs,
    evaluate,
    op_census,
    serialize_program,
)
from dhac import cli, programs
from dhac.programs import BUILTIN_NAMES
from dhac.rng import substream

ACC = ArithBackend.accurate()
INTEGER_NAMES = ["fir", "conv2x2", "euler2", "euler3", "rk2", "rk3"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestRegistry:
    def test_shorthands_resolve(self):
        assert builtin_program("fir").name == builtin_program("fir_filter").name
        assert builtin_program("euler2").name == "euler2"
        assert builtin_program("rk3").name == builtin_program("runge_kutta3").name

    def test_params_forwarded(self):
        g = builtin_program("fir_filter", taps=5)
        assert g.name == "fir5"
        assert op_census(g)["mul"] == 5

    def test_unknown_name(self):
        with pytest.raises(BuiltinError, match="unknown builtin"):
            builtin_spec("fir9000")
        with pytest.raises(BuiltinError, match=r"^unknown builtin 'a\\nb' \(known:"):  # one line
            builtin_spec("a\nb")

    def test_bad_params(self):
        with pytest.raises(BuiltinError):
            builtin_spec("euler", order=4)
        with pytest.raises(BuiltinError, match="runge_kutta: order must be 2 or 3"):
            builtin_spec("runge_kutta", order=4)
        with pytest.raises(BuiltinError):
            builtin_spec("fir_filter", taps=1)
        with pytest.raises(BuiltinError):
            builtin_spec("conv_layer", kernel=20, size=4)
        with pytest.raises(BuiltinError, match="bad parameters"):
            builtin_spec("fir", bogus=1)

    @pytest.mark.parametrize("name", ["conv2x2", "euler", "euler3", "runge_kutta", "rk2"])
    def test_unseeded_builtins_take_no_seed(self, name):
        # their constants are fixed; only fir_filter and conv_layer draw theirs from a seed
        with pytest.raises(BuiltinError, match="bad parameters"):
            builtin_spec(name, seed=2)
        assert "seed" not in builtin_spec(name).meta

    def test_fir_taps_keep_the_input_range_nonempty(self):
        # 66 taps would leave the range 100..32767 // (66 * 5) = 99 empty
        with pytest.raises(BuiltinError, match=r"taps must be in \[2, 65\], got 66"):
            builtin_spec("fir_filter", taps=66)
        spec = builtin_spec("fir_filter", taps=65)
        assert draw_inputs(spec, substream(0, "fir65")) == [100] * 65

    @pytest.mark.parametrize(
        "name, params",
        [
            ("conv_layer", {"channels": 1, "kernel": 1, "size": 1}),
            ("conv_layer", {"channels": 3, "kernel": 4, "size": 4}),  # one output pixel
            ("conv_layer", {"channels": 1, "kernel": 2, "size": 7}),
            ("conv_layer", {"channels": 4, "kernel": 1, "size": 3}),
            ("conv_layer", {"channels": 2, "kernel": 2, "size": 5}),
        ],
    )
    def test_node_budget_counts_exactly(self, name, params, monkeypatch):
        nodes = len(builtin_program(name, **params).nodes)
        monkeypatch.setattr(programs, "NODE_BUDGET", nodes)
        assert len(builtin_program(name, **params).nodes) == nodes
        monkeypatch.setattr(programs, "NODE_BUDGET", nodes - 1)
        msg = f"^{name}: parameters give {nodes} nodes, more than the budget of {nodes - 1}$"
        with pytest.raises(BuiltinError, match=msg):
            builtin_program(name, **params)

    @pytest.mark.parametrize("name", [*INTEGER_NAMES, "conv_layer"])
    def test_defaults_fit_well_inside_the_node_budget(self, name):
        assert len(builtin_program(name).nodes) * 20 <= programs.NODE_BUDGET

    @pytest.mark.parametrize(
        "name, params", [("conv_layer", {"size": 10**30}), ("euler", {"steps": 10**30}), ("rk3", {"steps": 10**6})]
    )
    def test_oversized_graph_is_refused_before_it_is_built(self, name, params):
        # conv_layer counts its nodes against the budget; the integrators' steps stay in [2, 10]
        msg = "more than the budget of 1000000$" if name == "conv_layer" else r"steps must be in \[2, 10\]"
        with pytest.raises(BuiltinError, match=msg):
            builtin_spec(name, **params)

    def test_spec_determinism(self):
        # seeded constants must not drift between constructions
        for name in INTEGER_NAMES + ["conv_layer"]:
            assert serialize_program(builtin_program(name)) == serialize_program(builtin_program(name))


# The bytes every builtin serializes to at default parameters, and those of
# `dhac fbc-instrument --program conv_layer --seed 1`. The seeded constants
# (fir's coefficients, conv_layer's weights and bias, the sentinel operands)
# follow numpy's seeded streams, so a numpy that changes a stream changes a
# digest here as well as a changed node order, id or constant does.
PINNED_SHA256 = {
    "conv2x2": "394f4097c145ba6e43bf9706491e9366b66c7de409b68109459bd60e1e6b8923",
    "conv_layer": "ac14fd4c84b907d070efb75df90cd40bbc132b7422317a5afbdd6f52ed21e376",
    "euler": "0f9e55d94510bd5cd7a703cecdda06ac4ed8bdcfeab58460ea28163376b33b32",
    "euler2": "0f9e55d94510bd5cd7a703cecdda06ac4ed8bdcfeab58460ea28163376b33b32",
    "euler3": "87ce47c111a68d36bf12b6a45a6a5cea249d30b63b148adb4bded34883a9af04",
    "fir": "f7005bf4d6b2ea7dfddb1695ee203a1696279e507a6ad6a58efc8636cee1791b",
    "fir_filter": "f7005bf4d6b2ea7dfddb1695ee203a1696279e507a6ad6a58efc8636cee1791b",
    "rk2": "d2aea1c3baf1c26cedc6742f08084b3c77b155289910dc7afe376b32815f287d",
    "rk3": "35cc0cb6a7719b0602daa1ed8818afd58d5286d146a77ac22b9d4015faecdba6",
    "runge_kutta": "d2aea1c3baf1c26cedc6742f08084b3c77b155289910dc7afe376b32815f287d",
    "runge_kutta2": "d2aea1c3baf1c26cedc6742f08084b3c77b155289910dc7afe376b32815f287d",
    "runge_kutta3": "35cc0cb6a7719b0602daa1ed8818afd58d5286d146a77ac22b9d4015faecdba6",
}
INSTRUMENTED_CONV_LAYER_SEED1_SHA256 = "95a2b6e72e7e5c93edaacbeb98644ed89dbdb3405cb61c8c87e05d3fd1bab4aa"


class TestPinnedBytes:
    def test_every_builtin(self):
        digests = {name: _sha256(serialize_program(builtin_program(name)).encode()) for name in sorted(BUILTIN_NAMES)}
        assert digests == PINNED_SHA256

    def test_instrumented_conv_layer(self, tmp_path, capsys):
        out = tmp_path / "ins.json"
        assert cli.main(["fbc-instrument", "--program", "conv_layer", "--seed", "1", "--out", str(out)]) == 0
        assert _sha256(out.read_bytes()) == INSTRUMENTED_CONV_LAYER_SEED1_SHA256


class TestShapes:
    def test_censuses(self):
        expect = {
            "fir": {"add_sub": 10, "mul": 11},
            "conv2x2": {"add_sub": 3, "mul": 4},
            "euler2": {"add_sub": 30, "mul": 22},
            "euler3": {"add_sub": 40, "mul": 40},
            "rk2": {"add_sub": 42, "mul": 33},
            "rk3": {"add_sub": 72, "mul": 73},
        }
        for name, want in expect.items():
            c = op_census(builtin_program(name))
            assert (c["add_sub"], c["mul"], c["div"]) == (want["add_sub"], want["mul"], 0), name

    def test_integer_builtins_are_int16(self):
        for name in INTEGER_NAMES:
            g = builtin_program(name)
            assert g.dtype is ScalarType.INT16
            assert all(t is ScalarType.INT16 for t in g.node_types().values())
            assert len(g.outputs) == 1

    def test_conv_layer_shape(self):
        spec = builtin_spec("conv_layer")
        g = spec.graph
        assert g.dtype is ScalarType.FLOAT64
        assert len(g.inputs) == 8 * 16 * 16
        assert len(g.outputs) == 14 * 14
        assert spec.meta["kernel"] == 3

    def test_input_ranges_cover_inputs(self):
        for name in INTEGER_NAMES + ["conv_layer"]:
            spec = builtin_spec(name)
            assert len(spec.input_ranges) == len(spec.graph.inputs)

    def test_fir_coefficient_window(self):
        spec = builtin_spec("fir")
        assert all(2 <= c <= 5 for c in spec.meta["coeffs"])
        assert spec.meta["x_hi"] == 32767 // (11 * 5)


class TestClosedForms:
    CLOSED = {
        "fir": lambda spec, ins: O.fir_closed(spec.meta["coeffs"], ins),
        "conv2x2": lambda spec, ins: O.conv2x2_closed(ins[:4], ins[4:]),
        "euler2": lambda spec, ins: O.euler_closed(*ins, steps=spec.meta["steps"]),
        "euler3": lambda spec, ins: O.euler_closed(*ins, steps=spec.meta["steps"]),
        "rk2": lambda spec, ins: O.rk2_closed(*ins, steps=spec.meta["steps"]),
        "rk3": lambda spec, ins: O.rk3_closed(*ins, steps=spec.meta["steps"]),
    }

    @pytest.mark.parametrize("name", INTEGER_NAMES)
    def test_matches_evaluation(self, name):
        spec = builtin_spec(name)
        rng = substream(21, "closed", name)
        for _ in range(100):
            ins = draw_inputs(spec, rng)
            assert evaluate(spec.graph, ins, ACC).outputs[0] == self.CLOSED[name](spec, ins)

    def test_spot_anchors(self):
        # integrator outputs depend only on y0, the even coefficients and the
        # constant term; odd powers cancel over the centered grids
        assert O.euler_closed(0, 1, 0, 0) == 5280
        assert O.euler_closed(100, 1, 0, 0, 0) == 100  # c3 slot cancels
        assert O.euler_closed(0, 0, 1, 9, 0) == 5280
        assert O.rk2_closed(0, 1, 0, 0) == 2720
        assert O.rk2_closed(0, 0, 0, 1) == 360
        assert O.rk3_closed(0, 0, 1, 0) == 2000
        assert O.rk3_closed(7, 2, 0, -9) == 7

    @pytest.mark.parametrize("name", INTEGER_NAMES)
    def test_output_window_fits_int16(self, name):
        # every output is multilinear in the inputs, so checking the closed
        # form over all box corners bounds it over the whole box
        spec = builtin_spec(name)
        corners = [(int(r.lo), int(r.hi)) for r in spec.input_ranges]
        lo = hi = None
        for point in itertools.product(*corners):
            v = self.CLOSED[name](spec, list(point))
            lo = v if lo is None else min(lo, v)
            hi = v if hi is None else max(hi, v)
        assert -32768 <= lo and hi <= 32767, (name, lo, hi)

    @pytest.mark.parametrize(
        "name, param, lo, hi",
        [("fir", "taps", 2, 65), ("euler2", "steps", 2, 10), ("euler3", "steps", 2, 10), ("rk2", "steps", 2, 10), ("rk3", "steps", 2, 10)],
    )
    def test_every_accepted_parameter_is_sound(self, name, param, lo, hi):
        # a parameter past its edges is refused; at each edge, the exact output at every corner of the
        # input box fits int16, so no honest job wraps and none is flagged
        for bad in (lo - 1, hi + 1):
            with pytest.raises(BuiltinError, match=rf": {param} must be in \[{lo}, {hi}\], got {bad}$"):
                builtin_spec(name, **{param: bad})
        for edge in (lo, hi):
            spec = builtin_spec(name, **{param: edge})
            ends = [(int(r.lo), int(r.hi)) for r in spec.input_ranges]
            # fir's output grows with every input, so its all-low and all-high corners stand for all 2^taps
            corners = zip(*ends) if name == "fir" else itertools.product(*ends)
            outs = [self.CLOSED[name](spec, list(c)) for c in corners]
            assert -32768 <= min(outs) and max(outs) <= 32767, (name, edge, min(outs), max(outs))


class TestDrawInputs:
    @pytest.mark.parametrize("name", INTEGER_NAMES)
    def test_bounds_respected(self, name):
        spec = builtin_spec(name)
        cols = draw_inputs(spec, substream(5, "draw", name), 500)
        for col, r in zip(cols, spec.input_ranges):
            assert col.min() >= r.lo and col.max() <= r.hi
            if r.exclude_zero:
                assert not (col == 0).any()

    def test_exclude_zero_hits_both_signs(self):
        spec = builtin_spec("euler3")
        col = draw_inputs(spec, substream(6, "draw"), 2000)[1]  # c3 in [-2, 2] \ {0}
        assert set(np.unique(col)) == {-2, -1, 1, 2}

    def test_scalar_draw_types(self):
        ins = draw_inputs(builtin_spec("fir"), substream(7, "draw"))
        assert all(isinstance(v, int) for v in ins)
        fins = draw_inputs(builtin_spec("conv_layer"), substream(7, "draw"))
        assert all(isinstance(v, float) for v in fins)

    def test_float_bounds(self):
        spec = builtin_spec("conv_layer")
        cols = draw_inputs(spec, substream(8, "draw"), 50)
        assert all(c.min() >= -1.0 and c.max() <= 1.0 for c in cols)

    def test_determinism(self):
        spec = builtin_spec("rk2")
        a = draw_inputs(spec, substream(9, "draw", "x"), 32)
        b = draw_inputs(spec, substream(9, "draw", "x"), 32)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
