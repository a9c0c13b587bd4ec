"""Builtin benchmark programs and their input conventions.

Integer builtins (fir, conv2x2, euler, runge_kutta) keep their exact output
inside int16 over the documented input bounds. Intermediates are allowed to
wrap: every int16 op commutes with reduction mod 2^16, so a wrapped
evaluation agrees with the unbounded one modulo 2^16 at every node, and the
residue check stays sound as long as the final unbounded value fits. The
bounds below are chosen so it does (each output is multilinear in the
inputs, so box corners bound it).

euler / runge_kutta integrate y' = p(t) for a polynomial whose coefficients
are runtime inputs, over a fixed centered grid with step h = const. The grid
powers t^k are folded to constants (loop-invariant precomputation); the
symmetric grid makes odd-power contributions cancel in the exact output,
which keeps the final value inside a narrow documented window while every
step still exercises the multiplier and adder. runge_kutta accumulates the
(6/h)-scaled trajectory so the (1,4,1) stage combination needs no division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BuiltinError
from .graph import DFGraph, DFNode, Op, ScalarType
from .rng import substream


@dataclass(frozen=True)
class InputRange:
    """Sampling bounds for one graph input (integer bounds are inclusive)."""

    lo: float
    hi: float
    exclude_zero: bool = False


@dataclass
class BuiltinSpec:
    graph: DFGraph
    input_ranges: list[InputRange]
    meta: dict = field(default_factory=dict)


# The most nodes conv_layer may have: it counts its nodes from its parameters
# and refuses a larger graph before building it. The other builtins' parameter
# bounds keep them at 214 nodes or fewer.
NODE_BUDGET = 1_000_000


def _n(nid, op, *operands, value=None, dtype=None) -> DFNode:
    return DFNode(id=nid, op=op, operands=tuple(operands), value=value, dtype=dtype)


def _graph(name: str, dtype: ScalarType, nodes: list[DFNode]) -> DFGraph:
    """A builtin's graph: its inputs and outputs are its input and output nodes, in file order."""
    input_, output = Op.INPUT, Op.OUTPUT  # locals and index access: a scan of conv_layer then costs what appends did
    return DFGraph(name, dtype, nodes, [n[0] for n in nodes if n[1] is input_], [n[0] for n in nodes if n[1] is output])


# ---------------------------------------------------------------------------
# fir_filter: lowpass with positive seeded coefficients, positive signal


def _fir(taps: int = 11, seed: int = 0) -> BuiltinSpec:
    # above 65 taps the input range 100..32767 // (taps * 5) is empty
    if not 2 <= taps <= 65:
        raise BuiltinError(f"fir_filter: taps must be in [2, 65], got {taps}")
    rng = substream(seed, "builtin", "fir", "coeffs")
    coeffs = [int(c) for c in rng.integers(2, 6, size=taps)]
    # sum(c*x) <= taps * max(c) * x_hi must stay under 32767
    x_hi = 32767 // (taps * 5)
    nodes = []
    for i in range(taps):
        nodes.append(_n(f"x{i}", Op.INPUT))
        nodes.append(_n(f"c{i}", Op.CONST, value=coeffs[i]))
        nodes.append(_n(f"m{i}", Op.MUL, f"c{i}", f"x{i}"))
    acc = "m0"
    for i in range(1, taps):
        nodes.append(_n(f"s{i}", Op.ADD, acc, f"m{i}"))
        acc = f"s{i}"
    nodes.append(_n("out", Op.OUTPUT, acc))
    return BuiltinSpec(
        graph=_graph(f"fir{taps}" if taps != 11 else "fir", ScalarType.INT16, nodes),
        input_ranges=[InputRange(100, x_hi)] * taps,
        meta={"taps": taps, "coeffs": coeffs, "x_hi": x_hi},
    )


# ---------------------------------------------------------------------------
# conv2x2: elementwise product of two 2x2 matrices, summed


def _conv2x2() -> BuiltinSpec:
    nodes = [_n(f"a{i}", Op.INPUT) for i in range(4)] + [_n(f"b{i}", Op.INPUT) for i in range(4)]
    for i in range(4):
        nodes.append(_n(f"m{i}", Op.MUL, f"b{i}", f"a{i}"))
    nodes.append(_n("s1", Op.ADD, "m0", "m1"))
    nodes.append(_n("s2", Op.ADD, "s1", "m2"))
    nodes.append(_n("s3", Op.ADD, "s2", "m3"))
    nodes.append(_n("out", Op.OUTPUT, "s3"))
    # 4 * 300 * 27 = 32400 < 32767: wrap-free
    ranges = [InputRange(50, 300)] * 4 + [InputRange(10, 27)] * 4
    return BuiltinSpec(graph=_graph("conv2x2", ScalarType.INT16, nodes), input_ranges=ranges)


# ---------------------------------------------------------------------------
# euler / runge_kutta on y' = p(u), centered integer grid, step weight 16
#
# The step weight is a power of two multiplied data-first, which every
# multiplier model computes exactly (truncation masks cannot touch a
# trailing-zero pattern and the log multiplier is exact on powers of two),
# so the weight scaling never amplifies unit error.


_H = 16


def _euler(order: int = 2, steps: int = 10) -> BuiltinSpec:
    if order not in (2, 3):
        raise BuiltinError("euler: order must be 2 or 3")
    # the input ranges hold for at most 10 steps: at 11 an honest output can leave int16
    if not 2 <= steps <= 10:
        raise BuiltinError(f"euler: steps must be in [2, 10], got {steps}")
    ts = [2 * n - (steps - 1) for n in range(steps)]  # centered odd grid
    nodes = [_n("y0", Op.INPUT)] + [_n(f"c{k}", Op.INPUT) for k in range(order, -1, -1)]

    if order == 2:
        # prescale q_k = c_k * 16 once (data-first, exact under every
        # multiplier model); the constant term stays raw so low bits of the
        # running value keep moving.
        nodes.append(_n("h", Op.CONST, value=_H))
        nodes.append(_n("q2", Op.MUL, "c2", "h"))
        nodes.append(_n("q1", Op.MUL, "c1", "h"))
        acc = "y0"
        for s, t in enumerate(ts):
            nodes.append(_n(f"U2_{s}", Op.CONST, value=t * t))
            nodes.append(_n(f"U1_{s}", Op.CONST, value=t))
            nodes.append(_n(f"e2_{s}", Op.MUL, f"U2_{s}", "q2"))
            nodes.append(_n(f"e1_{s}", Op.MUL, f"U1_{s}", "q1"))
            nodes.append(_n(f"p_{s}", Op.ADD, f"e2_{s}", f"e1_{s}"))
            nodes.append(_n(f"pq_{s}", Op.ADD, f"p_{s}", "c0"))
            nodes.append(_n(f"y_{s}", Op.ADD, acc, f"pq_{s}"))
            acc = f"y_{s}"
    else:
        # cubic via a nested first factor: e3 = (c3 * 16u^2) * u. The odd
        # powers carry the step weight on their grid constants; their
        # contributions cancel pairwise over the symmetric grid either way.
        acc = "y0"
        for s, t in enumerate(ts):
            nodes.append(_n(f"V2_{s}", Op.CONST, value=_H * t * t))
            nodes.append(_n(f"V1_{s}", Op.CONST, value=_H * t))
            nodes.append(_n(f"U1_{s}", Op.CONST, value=t))
            nodes.append(_n(f"e3a_{s}", Op.MUL, "c3", f"V2_{s}"))
            nodes.append(_n(f"e3_{s}", Op.MUL, f"U1_{s}", f"e3a_{s}"))
            nodes.append(_n(f"e2_{s}", Op.MUL, "c2", f"V2_{s}"))
            nodes.append(_n(f"e1_{s}", Op.MUL, "c1", f"V1_{s}"))
            nodes.append(_n(f"p32_{s}", Op.ADD, f"e3_{s}", f"e2_{s}"))
            nodes.append(_n(f"p_{s}", Op.ADD, f"p32_{s}", f"e1_{s}"))
            nodes.append(_n(f"pq_{s}", Op.ADD, f"p_{s}", "c0"))
            nodes.append(_n(f"y_{s}", Op.ADD, acc, f"pq_{s}"))
            acc = f"y_{s}"

    nodes.append(_n("out", Op.OUTPUT, acc))
    # exact output: y0 + 16*330*c2 + 10*c0, well inside int16
    if order == 2:
        ranges = [
            InputRange(0, 4000),       # y0 wide, spreads carry patterns
            InputRange(3, 5),          # c2
            InputRange(-9, 9),         # c1 (cancels in the exact output)
            InputRange(1, 9),          # c0
        ]
    else:
        ranges = [
            InputRange(0, 4000),           # y0 wide, spreads carry patterns
            InputRange(-2, 2, True),       # c3 (cancels over the symmetric grid)
            InputRange(3, 5),              # c2
            InputRange(-9, 9, True),       # c1
            InputRange(1, 9),              # c0
        ]
    meta = {"order": order, "steps": steps, "h": _H, "grid": ts}
    return BuiltinSpec(graph=_graph(f"euler{order}", ScalarType.INT16, nodes), input_ranges=ranges, meta=meta)


def _runge_kutta(order: int = 2, steps: int = 10) -> BuiltinSpec:
    if order not in (2, 3):
        raise BuiltinError("runge_kutta: order must be 2 or 3")
    if not 2 <= steps <= 10:  # as for euler
        raise BuiltinError(f"runge_kutta: steps must be in [2, 10], got {steps}")

    nodes = [_n("y0", Op.INPUT)]

    if order == 2:
        # Heun: grid evaluations shared between neighbouring steps (11
        # points).  The half-step weight rides on the grid constants; the
        # constant-term weight sits just off the power-of-two lattice
        # (17/19) so the low nibble of every stage stays live.
        ts = [n - steps // 2 for n in range(steps + 1)]
        nodes += [_n(name, Op.INPUT) for name in ("c2", "c1", "c0")]
        for j, t in enumerate(ts):
            nodes.append(_n(f"V2_{j}", Op.CONST, value=_H * t * t))
            nodes.append(_n(f"V1_{j}", Op.CONST, value=_H * t))
            nodes.append(_n(f"V0_{j}", Op.CONST, value=17 if j % 2 == 0 else 19))
            nodes.append(_n(f"g2_{j}", Op.MUL, "c2", f"V2_{j}"))
            nodes.append(_n(f"g1_{j}", Op.MUL, "c1", f"V1_{j}"))
            nodes.append(_n(f"g0_{j}", Op.MUL, "c0", f"V0_{j}"))
            nodes.append(_n(f"gs_{j}", Op.ADD, f"g2_{j}", f"g1_{j}"))
            nodes.append(_n(f"g_{j}", Op.ADD, f"gs_{j}", f"g0_{j}"))
        acc = "y0"
        for s in range(steps):
            nodes.append(_n(f"k_{s}", Op.ADD, f"g_{s}", f"g_{s + 1}"))
            nodes.append(_n(f"y_{s}", Op.ADD, acc, f"k_{s}"))
            acc = f"y_{s}"
        ranges = [
            InputRange(0, 1800),   # y0 wide, spreads carry patterns
            InputRange(6, 10),     # c2: output = y0 + 2720*c2 + 360*c0 <= 32240
            InputRange(-9, 9),     # c1
            InputRange(1, 9),      # c0
        ]
        meta = {"order": order, "steps": steps, "h": _H, "grid": ts}
    else:
        # Kutta (1,4,1) stages on a unit grid (h = 2, midpoints integral);
        # the 6/h-scaled trajectory is accumulated so no division appears.
        # Odd powers carry a factor 16 on their grid constants (their
        # contributions cancel pairwise over the symmetric grid, so the
        # output window is unchanged); the square term stays raw.
        ts = list(range(-steps, steps + 1))  # 21 points, shared endpoints
        nodes += [_n(name, Op.INPUT) for name in ("c3", "c2", "c1")]
        nodes.append(_n("four", Op.CONST, value=4))
        for j, t in enumerate(ts):
            nodes.append(_n(f"V3_{j}", Op.CONST, value=_H * t * t * t))
            nodes.append(_n(f"T2_{j}", Op.CONST, value=t * t))
            nodes.append(_n(f"V1_{j}", Op.CONST, value=_H * t))
            nodes.append(_n(f"g3_{j}", Op.MUL, "c3", f"V3_{j}"))
            nodes.append(_n(f"g2_{j}", Op.MUL, "c2", f"T2_{j}"))
            nodes.append(_n(f"g1_{j}", Op.MUL, "c1", f"V1_{j}"))
            nodes.append(_n(f"gs_{j}", Op.ADD, f"g3_{j}", f"g2_{j}"))
            nodes.append(_n(f"g_{j}", Op.ADD, f"gs_{j}", f"g1_{j}"))
        acc = "y0"
        for s in range(steps):
            nodes.append(_n(f"k4_{s}", Op.MUL, "four", f"g_{2 * s + 1}"))
            nodes.append(_n(f"ka_{s}", Op.ADD, f"g_{2 * s}", f"k4_{s}"))
            nodes.append(_n(f"kb_{s}", Op.ADD, f"ka_{s}", f"g_{2 * s + 2}"))
            nodes.append(_n(f"y_{s}", Op.ADD, acc, f"kb_{s}"))
            acc = f"y_{s}"
        ranges = [
            InputRange(0, 2000),       # y0 wide, spreads carry patterns
            InputRange(-2, 2, True),   # c3 (cancels over the symmetric grid)
            InputRange(10, 15),        # c2: output = y0 + 2000*c2 <= 32000
            InputRange(-9, 9, True),   # c1
        ]
        meta = {"order": order, "steps": steps, "h": 2, "grid": ts}

    nodes.append(_n("out", Op.OUTPUT, acc))
    return BuiltinSpec(graph=_graph(f"rk{order}", ScalarType.INT16, nodes), input_ranges=ranges, meta=meta)


# ---------------------------------------------------------------------------
# conv_layer: one float64 conv filter over a multi-channel image


def _conv_layer(channels: int = 8, kernel: int = 3, size: int = 16, seed: int = 0) -> BuiltinSpec:
    if kernel > size or channels < 1 or kernel < 1:
        raise BuiltinError("conv_layer: need kernel <= size and channels >= 1")
    fan_in = channels * kernel * kernel
    # inputs, weights and bias; then per output pixel, its products, sums, bias add and output
    count = channels * size * size + fan_in + 1 + (size - kernel + 1) ** 2 * (2 * fan_in + 1)
    if count > NODE_BUDGET:
        raise BuiltinError(f"conv_layer: parameters give {count} nodes, more than the budget of {NODE_BUDGET}")
    rng = substream(seed, "builtin", "conv_layer", "weights")
    # |sum(w*v)| <= 2 hard; bias keeps sentinel sites in ~[0.8, 4.4] so the
    # tan/arctan sentinel stays far from its libm noise floor
    w_amp = 2.0 / fan_in
    weights = rng.uniform(-w_amp, w_amp, size=(channels, kernel, kernel))
    bias = float(rng.uniform(1.0, 2.4)) * (1.0 if rng.uniform() < 0.5 else -1.0)

    nodes = [_n(f"i{c}_{y}_{x}", Op.INPUT) for c in range(channels) for y in range(size) for x in range(size)]
    for c in range(channels):
        for i in range(kernel):
            for j in range(kernel):
                nodes.append(_n(f"w{c}_{i}_{j}", Op.CONST, value=float(weights[c, i, j])))
    nodes.append(_n("bias", Op.CONST, value=bias))

    out_size = size - kernel + 1
    for y in range(out_size):
        for x in range(out_size):
            acc = None
            k = 0
            for c in range(channels):
                for i in range(kernel):
                    for j in range(kernel):
                        m = f"m{y}_{x}_{k}"
                        nodes.append(_n(m, Op.MUL, f"w{c}_{i}_{j}", f"i{c}_{y + i}_{x + j}"))
                        if acc is None:
                            acc = m
                        else:
                            a = f"a{y}_{x}_{k}"
                            nodes.append(_n(a, Op.ADD, acc, m))
                            acc = a
                        k += 1
            nodes.append(_n(f"acc{y}_{x}", Op.ADD, acc, "bias"))
            nodes.append(_n(f"o{y}_{x}", Op.OUTPUT, f"acc{y}_{x}"))

    return BuiltinSpec(
        graph=_graph("conv_layer", ScalarType.FLOAT64, nodes),
        input_ranges=[InputRange(-1.0, 1.0)] * (channels * size * size),
        meta={
            "channels": channels,
            "kernel": kernel,
            "size": size,
            "seed": seed,
            "bias": bias,
            "w_amp": w_amp,
        },
    )


# ---------------------------------------------------------------------------
# registry


_BUILTINS = {
    "fir_filter": _fir,
    "conv2x2": _conv2x2,
    "euler": _euler,
    "runge_kutta": _runge_kutta,
    "conv_layer": _conv_layer,
}

# shorthands for a builtin with fixed parameters
SHORTHAND = {
    "fir": ("fir_filter", {}),
    "euler2": ("euler", {"order": 2}),
    "euler3": ("euler", {"order": 3}),
    "rk2": ("runge_kutta", {"order": 2}),
    "rk3": ("runge_kutta", {"order": 3}),
    "runge_kutta2": ("runge_kutta", {"order": 2}),
    "runge_kutta3": ("runge_kutta", {"order": 3}),
}

# every name builtin_spec, campaign configs and `dhac --program` accept
BUILTIN_NAMES = frozenset(_BUILTINS) | frozenset(SHORTHAND)

INTEGER_SHORTHANDS = ("fir", "conv2x2", "euler2", "euler3", "rk2", "rk3")


def builtin_spec(name: str, **params) -> BuiltinSpec:
    """Builtin graph plus input bounds; accepts canonical or shorthand names."""
    if name not in BUILTIN_NAMES:
        raise BuiltinError(f"unknown builtin {name!r} (known: {sorted(BUILTIN_NAMES)})")
    base, defaults = SHORTHAND.get(name, (name, {}))
    try:
        return _BUILTINS[base](**{**defaults, **params})
    except TypeError as e:
        raise BuiltinError(f"bad parameters for builtin '{name}': {e}") from None


def builtin_program(name: str, **params) -> DFGraph:
    """The builtin's validated graph (see builtin_spec for input bounds)."""
    return builtin_spec(name, **params).graph


def draw_inputs(spec: BuiltinSpec, rng, n: int | None = None):
    """Sample inputs within the builtin's bounds.

    With n=None returns one scalar input list; otherwise a list of length-n
    arrays (one per input position) for the batch evaluator.
    """
    int_graph = spec.graph.dtype is ScalarType.INT16
    cols = []
    for r in spec.input_ranges:
        size = n if n is not None else 1
        if int_graph:
            v = rng.integers(int(r.lo), int(r.hi) + 1, size=size)
            if r.exclude_zero:
                while True:
                    zeros = v == 0
                    if not zeros.any():
                        break
                    v[zeros] = rng.integers(int(r.lo), int(r.hi) + 1, size=int(zeros.sum()))
        else:
            v = rng.uniform(r.lo, r.hi, size=size)
        cols.append(v)
    if n is None:
        return [int(c[0]) if int_graph else float(c[0]) for c in cols]
    return [c for c in cols]
