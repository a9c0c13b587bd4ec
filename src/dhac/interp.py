"""Graph evaluation under an arithmetic backend.

`evaluate` is the scalar reference interpreter. `evaluate_batch` runs many
input vectors through one topological sweep with numpy lanes and is
bit-identical to the scalar path (Tan/Arctan lanes go through math.tan /
math.atan elementwise on purpose: numpy's vectorized transcendentals may
differ from libm in the last ulp).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .approx import (
    ArithBackend,
    add16,
    add16_batch,
    fp_op,
    mul16,
    mul16_batch,
    neg16,
    trunc_mantissa_batch,
)
from .errors import EvalError, InputError
from .graph import INT16_MAX, INT16_MIN, DFGraph, Op, ScalarType, Trace

_FP_OPNAME = {Op.ADD: "add", Op.SUB: "sub", Op.MUL: "mul", Op.DIV: "div",
              Op.TAN: "tan", Op.ARCTAN: "arctan"}

_tan_lane = np.frompyfunc(math.tan, 1, 1)
_atan_lane = np.frompyfunc(math.atan, 1, 1)


def _check_scalar_input(x, t: ScalarType, pos: int):
    if t is ScalarType.INT16:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise InputError(f"input {pos}: expected an integer, got {type(x).__name__}")
        if not INT16_MIN <= int(x) <= INT16_MAX:
            raise InputError(f"input {pos}: {x} outside int16 range")
        return int(x)
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise InputError(f"input {pos}: expected a number, got {type(x).__name__}")
    xf = float(x)
    if not math.isfinite(xf):
        raise InputError(f"input {pos}: non-finite value")
    return xf


def evaluate(graph: DFGraph, inputs: Sequence[int | float], backend: ArithBackend) -> Trace:
    """Run one input vector through the graph; returns outputs and export taps."""
    if len(inputs) != len(graph.inputs):
        raise InputError(f"expected {len(graph.inputs)} inputs, got {len(inputs)}")

    values: dict[str, int | float] = {}
    for pos, nid in enumerate(graph.inputs):
        values[nid] = _check_scalar_input(inputs[pos], graph.node_type(nid), pos)

    exports: dict[str, int | float] = {}
    for nid in graph.topo_order:
        n = graph.node(nid)
        t = graph.node_type(nid)
        if n.op is Op.INPUT:
            continue
        if n.op is Op.CONST:
            values[nid] = int(n.value) if t is ScalarType.INT16 else float(n.value)
            continue
        if n.op in (Op.OUTPUT, Op.EXPORT):
            v = values[n.operands[0]]
            values[nid] = v
            if n.op is Op.EXPORT:
                exports[nid] = v
            continue

        args = [values[x] for x in n.operands]
        if t is ScalarType.INT16:
            a, b = args
            if n.op is Op.ADD:
                values[nid] = add16(backend.adder, a, b)
            elif n.op is Op.SUB:
                # subtraction routes through the adder on the two's-complement negation
                values[nid] = add16(backend.adder, a, neg16(b))
            elif n.op is Op.MUL:
                values[nid] = mul16(backend.multiplier, a, b)
            else:  # integer division: exact in both paradigms
                if b == 0:
                    raise EvalError("div-by-zero", nid)
                if a % b != 0:
                    raise EvalError("inexact-div", nid)
                q = a // b
                values[nid] = (q & 0xFFFF) - 0x10000 if q & 0x8000 else q & 0xFFFF
        else:
            fargs = [float(v) for v in args]  # int16 operands widen exactly
            try:
                r = fp_op(backend.fp, _FP_OPNAME[n.op], *fargs)
            except EvalError as e:
                raise EvalError(e.reason, nid) from None
            if not math.isfinite(r):
                raise EvalError("non-finite", nid)
            values[nid] = r

    return Trace(
        outputs=tuple(values[o] for o in graph.outputs),
        exports=exports,
    )


# ---------------------------------------------------------------------------
# batch path


def _check_batch_input(arr: np.ndarray, t: ScalarType, pos: int, n: int) -> np.ndarray:
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InputError(f"input {pos}: expected a 1-d array of length {n}")
    if t is ScalarType.INT16:
        if not np.issubdtype(arr.dtype, np.integer):
            raise InputError(f"input {pos}: expected integers")
        if arr.min(initial=0) < INT16_MIN or arr.max(initial=0) > INT16_MAX:
            raise InputError(f"input {pos}: values outside int16 range")
        return arr.astype(np.int64)
    out = arr.astype(np.float64)
    if not np.all(np.isfinite(out)):
        raise InputError(f"input {pos}: non-finite values")
    return out


def evaluate_batch(
    graph: DFGraph, inputs: Sequence[np.ndarray], backend: ArithBackend
) -> Trace:
    """Evaluate n trials at once; outputs/exports are length-n arrays.

    Intermediate lanes are freed as soon as their last consumer has run, so
    peak memory tracks graph width rather than graph size.
    """
    if len(inputs) != len(graph.inputs):
        raise InputError(f"expected {len(graph.inputs)} inputs, got {len(inputs)}")
    n = int(np.asarray(inputs[0]).shape[0]) if len(inputs) else 0

    values: dict[str, np.ndarray | int | float] = {}
    for pos, nid in enumerate(graph.inputs):
        values[nid] = _check_batch_input(np.asarray(inputs[pos]), graph.node_type(nid), pos, n)

    fp_bits = backend.fp.bits
    exports: dict[str, np.ndarray] = {}
    for nid, dead in zip(graph.topo_order, graph.dead_after):
        node = graph.node(nid)
        t = graph.node_type(nid)
        if node.op is Op.INPUT:
            pass
        elif node.op is Op.CONST:
            values[nid] = int(node.value) if t is ScalarType.INT16 else float(node.value)
        elif node.op in (Op.OUTPUT, Op.EXPORT):
            v = values[node.operands[0]]
            values[nid] = v
            if node.op is Op.EXPORT:
                exports[nid] = v
        elif t is ScalarType.INT16:
            a, b = (values[x] for x in node.operands)
            if node.op is Op.ADD:
                values[nid] = add16_batch(backend.adder, a, b)
            elif node.op is Op.SUB:
                values[nid] = add16_batch(backend.adder, a, np.asarray(b, dtype=np.int64) * -1)
            elif node.op is Op.MUL:
                values[nid] = mul16_batch(backend.multiplier, a, b)
            else:
                aa = np.asarray(a, dtype=np.int64)
                bb = np.asarray(b, dtype=np.int64)
                if np.any(bb == 0):
                    raise EvalError("div-by-zero", nid)
                if np.any(aa % bb != 0):
                    raise EvalError("inexact-div", nid)
                q = aa // bb
                u = q & 0xFFFF
                values[nid] = np.where(u & 0x8000, u - 0x10000, u)
        else:
            args = [np.asarray(values[x], dtype=np.float64) for x in node.operands]
            if fp_bits:
                args = [trunc_mantissa_batch(v, fp_bits) for v in args]
            # overflow surfaces as the non-finite EvalError below, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                if node.op is Op.TAN:
                    r = _tan_lane(args[0]).astype(np.float64)
                elif node.op is Op.ARCTAN:
                    r = _atan_lane(args[0]).astype(np.float64)
                elif node.op is Op.ADD:
                    r = args[0] + args[1]
                elif node.op is Op.SUB:
                    r = args[0] - args[1]
                elif node.op is Op.MUL:
                    r = args[0] * args[1]
                else:
                    if np.any(args[1] == 0.0):
                        raise EvalError("div-by-zero", nid)
                    r = args[0] / args[1]
            if not np.all(np.isfinite(r)):
                raise EvalError("non-finite", nid)
            values[nid] = r

        for op_id in dead:
            del values[op_id]

    def widen(v) -> np.ndarray:
        arr = np.asarray(v)
        if arr.ndim == 0:
            arr = np.broadcast_to(arr, (n,)).copy()
        return arr

    return Trace(
        outputs=tuple(widen(values[o]) for o in graph.outputs),
        exports={k: widen(v) for k, v in exports.items()},
    )
