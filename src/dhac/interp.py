"""Graph evaluation under an arithmetic backend.

`evaluate` runs one input vector on Python scalars and `evaluate_batch` runs
n vectors at once on numpy lanes. Both are the same topological walk over
the same unit definitions; only a handful of primitives differ by form.
`rcc._residues` runs that walk too, with Z_m in place of the int16 units:
on Python ints for one input vector, on (k, n) lanes for a batch.
Every walk's inputs are checked by `_inputs`; int16 columns enter the lane
walk as int16 lanes, which wrap by their dtype, and `evaluate_batch` widens
its int16 outputs and exports to int64.
Tan/Arctan lanes go through math.tan / math.atan elementwise on purpose:
numpy's vectorized transcendentals may differ from libm in the last ulp, so
the two forms stay bit-identical.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import partial
from typing import Sequence

import numpy as np

from .approx import ArithBackend, add16_batch, mul16_batch, truncator, wrap16
from .errors import EvalError, InputError, integer, number
from .graph import ADD16, ADD64, ARCTAN64, CONST16, DIV16, DIV64, EXPORT16, MUL16, MUL64, OUTPUT16, SUB16, SUB64, TAN64, WIDEN
from .graph import INT16_MAX, INT16_MIN, DFGraph, ScalarType, Trace

_tan_lane = np.frompyfunc(math.tan, 1, 1)
_atan_lane = np.frompyfunc(math.atan, 1, 1)


def _float_lanes(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


# (all finite, any true, tan, arctan, a float64 value from an int16 or a float one)
_SCALAR_PRIMITIVES = (math.isfinite, bool, math.tan, math.atan, float)
_LANE_PRIMITIVES = (
    lambda r: np.isfinite(r).all(),
    np.any,
    lambda x: _float_lanes(_tan_lane(x)),
    lambda x: _float_lanes(_atan_lane(x)),
    _float_lanes,
)


def _walk(graph: DFGraph, xs: list, ints: tuple, bits: int, lanes: bool):
    """Run the graph's plan over its checked inputs `xs`, in `inputs` order; empties `xs`.

    `ints` is the integer arithmetic as (const, add, sub, mul, div); `div`
    also gets the node id, for its errors. `bits` is the float mantissa
    truncation of float units' operands; outputs and exports carry values
    untruncated. Values are Python scalars, or numpy lanes when `lanes` is
    set; a float constant is one value in either form (a 0-d array in
    lanes). Integer values are whatever `ints` makes them: the residue ring
    pairs each lane array with a bound. Returns (outputs, exports).
    """
    all_finite, any_true, tan, atan, widen = _LANE_PRIMITIVES if lanes else _SCALAR_PRIMITIVES
    trunc = truncator(bits)[lanes]
    const, add, sub, mul, div = ints
    ids, codes, first, second, last, consts, _, outputs = graph.plan
    # the unit of each arithmetic opcode but int16 division, which also gets the node id
    units = {
        ADD16: add, SUB16: sub, MUL16: mul,
        ADD64: operator.add, SUB64: operator.sub, MUL64: operator.mul, DIV64: operator.truediv,
        TAN64: lambda x, _: tan(x), ARCTAN64: lambda x, _: atan(x),
    }
    vals = []  # one value per position, as produced: outputs and exports carry these
    tvals = [] if bits else vals  # each float value truncated once, as produced: float units read these
    exports = {}
    # Arithmetic comes last, so that the jump past the other steps stays short
    # enough for the interpreter to fuse it with its compare.
    for p, (code, a, b) in enumerate(zip(codes, first, second)):
        if code < ADD16:
            if code >= OUTPUT16:
                r = vals[a]
                if code >= EXPORT16:
                    exports[ids[p]] = r
            elif code >= CONST16:
                r = widen(consts[a]) if code & 1 else const(consts[a])  # lane truncation views a numpy value
            else:
                r, xs[a] = xs[a], None  # taken, so that only `vals` holds it
        elif not code & 1:
            x, y = vals[a], vals[b]  # y is x for one operand
            r = div(x, y, ids[p]) if code == DIV16 else units[code](x, y)
        else:  # float units do exact double math on truncated operands
            if code >= WIDEN:  # int16 operands widen exactly, then truncate
                code -= WIDEN
                x, y = trunc(widen(vals[a])), trunc(widen(vals[b]))
            else:
                x, y = tvals[a], tvals[b]
            if code == DIV64 and any_true(y == 0.0):
                raise EvalError("div-by-zero", ids[p])
            r = units[code](x, y)
            if not all_finite(r):
                raise EvalError("non-finite", ids[p])
        vals.append(r)
        if bits:
            tvals.append(trunc(r) if code & 1 else r)
        # Lanes are freed after their last use, so peak memory tracks graph
        # width; for scalars the check would cost more than it saves.
        if lanes and code >= OUTPUT16:
            if last[a] == p:
                vals[a] = tvals[a] = None
            if last[b] == p:
                vals[b] = tvals[b] = None
    return list(map(vals.__getitem__, outputs)), exports  # no comprehension: it would make `vals` a cell


def _int16_units(backend: ArithBackend, any_true) -> tuple:
    """The backend's int16 arithmetic for `_walk`, on ints or lanes.

    The units are looked up when this is called, so a rebinding of
    `add16_batch` / `mul16_batch` in this module takes effect per call.
    """

    def div(a, b, nid):  # exact on every backend
        if any_true(b == 0):
            raise EvalError("div-by-zero", nid)
        if any_true(a % b != 0):
            raise EvalError("inexact-div", nid)
        return wrap16(a // b)  # -32768 // -1: 32768 wraps on ints, int16 lanes wrap by themselves

    add = partial(add16_batch, backend.adder)
    # subtraction routes through the adder on the negated operand, wrapped: a constant's
    # -(-32768) is a Python int no int16 lane can meet, and wraps to -32768 as a lane's does
    return int, add, lambda a, b: add(a, wrap16(-b)), partial(mul16_batch, backend.multiplier), div


def _check_scalar_input(x, t: ScalarType, where: str):
    """x as a Python int or float of type t, or InputError naming `where`: the rule for n=1 values."""
    if t is ScalarType.INT16:
        if not integer(x):
            raise InputError(f"{where}: expected an integer, got {type(x).__name__}")
        if not INT16_MIN <= int(x) <= INT16_MAX:
            raise InputError(f"{where}: {x} outside int16 range")
        return int(x)
    if not number(x):
        raise InputError(f"{where}: expected a number, got {type(x).__name__}")
    if not abs(x) <= sys.float_info.max:  # nan, inf, or an int no float holds
        raise InputError(f"{where}: non-finite value")
    return float(x)


def _check_batch_input(arr: np.ndarray, t: ScalarType, pos: int, n: int) -> np.ndarray:
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InputError(f"input {pos}: expected a 1-d array of length {n}")
    if t is ScalarType.INT16:
        if not np.issubdtype(arr.dtype, np.integer):
            raise InputError(f"input {pos}: expected integers")
        if arr.min(initial=0) < INT16_MIN or arr.max(initial=0) > INT16_MAX:
            raise InputError(f"input {pos}: values outside int16 range")
        return arr.astype(np.int16, copy=False)
    if arr.dtype.kind not in "iuf":  # bool, string and object lanes, as `evaluate` rejects them
        raise InputError(f"input {pos}: expected numbers, got {arr.dtype}")
    out = arr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(out)):
        raise InputError(f"input {pos}: non-finite values")
    return out


def _inputs(graph: DFGraph, inputs, lanes: bool) -> tuple[int, list]:
    """The lane count n and `inputs` checked against the graph's input types.

    The one input check of every walk (InputError): each value by the scalar
    rule (n = 1), or with `lanes` each column by the batch rule.
    """
    if len(inputs) != len(graph.inputs):
        raise InputError(f"expected {len(graph.inputs)} inputs, got {len(inputs)}")
    types = graph.plan.inputs
    if not lanes:
        return 1, [_check_scalar_input(x, t, f"input {pos}") for pos, (x, t) in enumerate(zip(inputs, types))]
    cols = [np.asarray(c) for c in inputs]
    n = cols[0].shape[0] if cols and cols[0].ndim else 0
    return n, [_check_batch_input(col, t, pos, n) for pos, (col, t) in enumerate(zip(cols, types))]


def evaluate(graph: DFGraph, inputs: Sequence[int | float], backend: ArithBackend) -> Trace:
    """Run one input vector through the graph; returns outputs and export taps.

    Every value in the trace is a Python int or float.
    """
    _, xs = _inputs(graph, inputs, lanes=False)
    outputs, exports = _walk(graph, xs, _int16_units(backend, bool), backend.fp_bits, lanes=False)
    return Trace(outputs=tuple(outputs), exports=exports)


def evaluate_batch(graph: DFGraph, inputs: Sequence[np.ndarray], backend: ArithBackend) -> Trace:
    """Evaluate n trials at once; outputs/exports are length-n arrays, int64 or float64.

    Float input columns are not copied: a float output or export that reads an input directly may be the caller's array.
    """
    n, xs = _inputs(graph, inputs, lanes=True)
    # lane overflow surfaces as the walk's non-finite EvalError, not a
    # warning; Python floats never warn, so the scalar walk skips this
    with np.errstate(over="ignore", invalid="ignore"):
        outputs, exports = _walk(graph, xs, _int16_units(backend, np.any), backend.fp_bits, lanes=True)

    def widen(v) -> np.ndarray:  # int16 lanes widen to int64; a constant's value fills every lane
        return np.asarray(v, np.result_type(v, np.int64)) if np.ndim(v) else np.full(n, v)

    return Trace(outputs=tuple(map(widen, outputs)), exports={k: widen(v) for k, v in exports.items()})
