"""Behavioral models of approximate 16-bit arithmetic units and FP truncation.

Integer units operate on 16-bit two's-complement patterns and return signed
values, on Python ints and int16 numpy lanes alike; every unit wraps at 16
bits, the approximate ones additionally lose information. Lanes wrap by their
dtype, so every constant a unit applies to a lane fits int16 (seg_carry's
segment tops 0x8888 are -30584); a Python int wraps by `wrap16`'s formula.
Only log_approx reads whole 16-bit patterns, on int32 lanes. The units:

  adders       loa(k)          low k result bits are OR of the operand low bits,
                               high bits are the exact sum of the high parts with
                               carry-in 0
               trunc_add(k)    low k bits of both operands zeroed, then exact sum
               seg_carry(s)    s-bit segments added independently, carries between
                               segments dropped
  multipliers  trunc_mul(k)    partial products from the k low bits of operand b
                               discarded (exact when b's low k bits are zero)
               broken_array(k) k least-significant columns of the partial-product
                               array dropped: their sum outputs are lost, their
                               carries propagate, i.e. the low k result bits of
                               the exact product are cleared
               log_approx      Mitchell log-domain multiply (always <= exact)

Float ops truncate the low `bits` mantissa bits of each operand and then
apply the exact IEEE-754 double operation; results are never truncated.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, StatsError, typed
from .graph import ScalarType

_MASK16 = 0xFFFF

ADDER_KINDS = ("exact", "loa", "trunc_add", "seg_carry")
MUL_KINDS = ("exact", "trunc_mul", "broken_array", "log_approx")


@dataclass(frozen=True)
class IntUnitModel:
    """One integer unit: kind plus its width parameter.

    param is the k (bit) or s (segment width) parameter. A k of 0 (an s of
    16 for seg_carry) computes exactly, through the kind's own formula.
    """

    kind: str
    param: int = 0

    def __post_init__(self):
        typed(self.param, int, f"{self.kind}: parameter", ConfigError)

    def check(self, role: str) -> None:
        kinds = ADDER_KINDS if role == "adder" else MUL_KINDS
        if self.kind not in kinds:
            raise ConfigError(f"unknown {role} kind {self.kind!r} (choose from {kinds})")
        if self.kind in ("loa", "trunc_add", "trunc_mul", "broken_array"):
            if not 0 <= self.param < 16:
                raise ConfigError(f"{self.kind}: parameter must be in [0, 16), got {self.param}")
        elif self.kind == "seg_carry":
            if not 1 < self.param <= 16:
                raise ConfigError(f"seg_carry: segment width must be in (1, 16], got {self.param}")
        elif self.param != 0:
            raise ConfigError(f"{self.kind} takes no parameter")

    def label(self) -> str:
        return self.kind if self.kind in ("exact", "log_approx") else f"{self.kind}({self.param})"


EXACT_UNIT = IntUnitModel("exact")


@dataclass(frozen=True)
class ArithBackend:
    """The units a job runs on: an adder, a multiplier and the float operand
    truncation in mantissa bits (0 = exact).

    A backend is accurate exactly when all three are exact, as the default is.
    """

    adder: IntUnitModel = EXACT_UNIT
    multiplier: IntUnitModel = EXACT_UNIT
    fp_bits: int = 0

    def __post_init__(self):
        self.adder.check("adder")
        self.multiplier.check("multiplier")
        check_fp_bits(self.fp_bits)

    @staticmethod
    def accurate() -> "ArithBackend":
        return ArithBackend()

    def label(self) -> str:
        parts = [self.adder.label(), self.multiplier.label()]
        if self.fp_bits:
            parts.append(f"fp_trunc({self.fp_bits})")
        return "+".join(parts)


# ---------------------------------------------------------------------------
# 16-bit integer units: one definition for Python ints and int16 lanes. A
# result's low 16 bits depend only on its operands' low 16 bits, and int16
# lanes keep only those: numpy's int16 arithmetic wraps, a Python int is
# wrapped by wrap16's formula.


def wrap16(x):
    """x reduced to a signed int16: a Python int by two's complement, lanes by a cast to int16 (none when int16)."""
    return ((x & _MASK16) ^ 0x8000) - 0x8000 if isinstance(x, int) else x.astype(np.int16, copy=False)


def _pattern16(x):
    """x's 16-bit pattern in [0, 2^16): a Python int, or int32 lanes (a uint16 lane times a Python int stays uint16)."""
    return (x if isinstance(x, int) else x.astype(np.int32)) & _MASK16


def add16_batch(model: IntUnitModel, a, b):
    """16-bit add under the given adder model; signed int16 result.

    a and b are Python ints or int16 lanes; the result is an int if both are, else int16 lanes.
    """
    kind, k = model.kind, model.param
    if kind == "exact":
        u = a + b
    elif kind == "loa":  # high parts added with carry-in 0, low bits ORed
        u = (((a >> k) + (b >> k)) << k) | ((a | b) & ((1 << k) - 1))
    elif kind == "trunc_add":
        mask = ~((1 << k) - 1)
        u = (a & mask) + (b & mask)
    else:  # seg_carry: each segment's bits below its top add with their carry, its top bit takes no carry out
        top = _segment_tops(k)
        u = ((a & ~top) + (b & ~top)) ^ ((a ^ b) & top)
    return wrap16(u)


@cache
def _segment_tops(s: int) -> int:
    """The top bit of each s-bit segment of 16 bits, signed so that it fits int16 lanes (s = 4: -30584)."""
    return wrap16(sum(1 << (min(lo + s, 16) - 1) for lo in range(0, 16, s)))


def mul16_batch(model: IntUnitModel, a, b):
    """16-bit multiply under the given multiplier model; signed int16 result.

    a and b are Python ints or int16 lanes; the result is an int if both are, else int16 lanes.
    """
    kind, k = model.kind, model.param
    if kind == "exact":
        u = a * b
    elif kind == "trunc_mul":
        u = a * (b & ~((1 << k) - 1))
    elif kind == "broken_array":
        u = a * b & ~((1 << k) - 1)
    else:  # log_approx, the one unit that reads whole 16-bit patterns: on int32 lanes, see _mitchell
        u = _mitchell(_pattern16(a), _pattern16(b))
    return wrap16(u)


def _floor_pow2(x):
    """The largest power of two <= a 16-bit pattern x, 0 for x = 0; on lanes, float32's exponent bits of x."""
    if isinstance(x, int):
        return 1 << x.bit_length() >> 1
    return (x.astype(np.float32).view(np.int32) & 0x7F800000).view(np.float32).astype(np.int32)


def _mitchell(a, b):
    # log2(x) ~ k + (x - 2^k)/2^k; antilog of the characteristic/fraction sum. A zero operand has
    # p = 0, so frac = base = 0 and the product is 0.
    p1, p2 = _floor_pow2(a), _floor_pow2(b)
    frac = (a - p1) * p2 + (b - p2) * p1  # (x1 + x2) * 2^(k1+k2) < 2^31, exact on int32 lanes
    base = p1 * p2
    # base + frac while the fraction sum stays below 1, else 2 * frac, whose int32 wrap leaves the low 16 bits
    return 2 * frac + (frac < base) * (base - frac)


# ---------------------------------------------------------------------------
# float64 operand truncation


def check_fp_bits(bits: int) -> None:
    """ConfigError unless `bits` is a mantissa truncation width, an integer: the rule of every truncation."""
    typed(bits, int, "fp truncation bits", ConfigError)
    if not 0 <= bits <= 52:
        raise ConfigError(f"fp truncation bits must be in [0, 52], got {bits}")


@cache  # one per width: at most 53, as a bad width raises
def truncator(bits: int) -> tuple:
    """The truncation of a float to `bits` fewer mantissa bits: (on a Python float, on float64 lanes).

    Both clear the low mantissa bits with one mask and take finite values only: clearing a nan's payload
    could make it inf. The walk's values are finite by construction; `trunc_mantissa` passes the others.
    """
    check_fp_bits(bits)
    keep = (1 << 64) - (1 << bits)
    f64, u64 = struct.Struct("<d"), struct.Struct("<Q")
    pack_d, unpack_d, pack_q, unpack_q = f64.pack, f64.unpack, u64.pack, u64.unpack
    lane_keep = np.uint64(keep)

    def trunc(x: float) -> float:
        return unpack_d(pack_q(unpack_q(pack_d(x))[0] & keep))[0]

    def trunc_lanes(x: np.ndarray) -> np.ndarray:
        return (x.view(np.uint64) & lane_keep).view(np.float64)

    return trunc, trunc_lanes


def trunc_mantissa(x: float, bits: int) -> float:
    """Clear the low `bits` IEEE-754 mantissa bits of x (non-finite passes through)."""
    trunc = truncator(bits)[0]
    return trunc(x) if math.isfinite(x) else x


# ---------------------------------------------------------------------------
# error statistics


@dataclass(frozen=True)
class ErrorStats:
    n: int
    mre: float
    max_rel_err: float
    zero_error_fraction: float


def error_stats(
    exact: Sequence[int | float] | np.ndarray,
    approx: Sequence[int | float] | np.ndarray,
    dtype: ScalarType = ScalarType.INT16,
) -> ErrorStats:
    """Relative-error summary of approx against exact.

    Relative error per pair is |approx - exact| / max(|exact|, eps) with
    eps = 1 for integer data and the smallest normal double for float data,
    so zero references never divide by zero.
    """
    e = np.asarray(exact, dtype=np.float64)
    a = np.asarray(approx, dtype=np.float64)
    if e.shape != a.shape:
        raise StatsError(f"length mismatch: {e.shape} vs {a.shape}")
    if e.size == 0:
        raise StatsError("empty sequences")
    eps = 1.0 if dtype is ScalarType.INT16 else sys.float_info.min
    rel = np.abs(a - e) / np.maximum(np.abs(e), eps)
    return ErrorStats(
        n=int(e.size),
        mre=float(np.mean(rel)),
        max_rel_err=float(np.max(rel)),
        zero_error_fraction=float(np.mean(a == e)),
    )
