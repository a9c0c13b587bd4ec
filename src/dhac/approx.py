"""Behavioral models of approximate 16-bit arithmetic units and FP truncation.

Integer units operate on 16-bit two's-complement patterns and return signed
values; both paradigms wrap at 16 bits, the approximate ones additionally
lose information:

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
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, EvalError, StatsError
from .graph import ScalarType

_MASK16 = 0xFFFF

ADDER_KINDS = ("exact", "loa", "trunc_add", "seg_carry")
MUL_KINDS = ("exact", "trunc_mul", "broken_array", "log_approx")


class Paradigm(Enum):
    ACCURATE = "accurate"
    APPROXIMATE = "approximate"


@dataclass(frozen=True)
class IntUnitModel:
    """One integer unit: kind plus its width parameter.

    param is the k (bit) or s (segment width) parameter; 0 is the degenerate
    exact configuration for the k-parameterized kinds (s=16 for seg_carry).
    """

    kind: str
    param: int = 0

    def check(self, role: str) -> None:
        kinds = ADDER_KINDS if role == "adder" else MUL_KINDS
        if self.kind not in kinds:
            raise ConfigError(f"unknown {role} kind '{self.kind}' (choose from {kinds})")
        if self.kind in ("loa", "trunc_add", "trunc_mul", "broken_array"):
            if not 0 <= self.param < 16:
                raise ConfigError(f"{self.kind}: parameter must be in [0, 16), got {self.param}")
        elif self.kind == "seg_carry":
            if not 1 < self.param <= 16:
                raise ConfigError(f"seg_carry: segment width must be in (1, 16], got {self.param}")
        elif self.param != 0:
            raise ConfigError(f"{self.kind} takes no parameter")

    @property
    def is_exact(self) -> bool:
        if self.kind == "exact":
            return True
        if self.kind == "seg_carry":
            return self.param == 16
        if self.kind == "log_approx":
            return False
        return self.param == 0

    def label(self) -> str:
        return self.kind if self.kind in ("exact", "log_approx") else f"{self.kind}({self.param})"


@dataclass(frozen=True)
class FpTruncModel:
    """Mantissa truncation width for float operands; 0 bits = exact."""

    bits: int = 0

    def check(self) -> None:
        if not 0 <= self.bits <= 52:
            raise ConfigError(f"fp truncation bits must be in [0, 52], got {self.bits}")

    @property
    def is_exact(self) -> bool:
        return self.bits == 0


EXACT_UNIT = IntUnitModel("exact")


@dataclass(frozen=True)
class ArithBackend:
    paradigm: Paradigm
    adder: IntUnitModel = EXACT_UNIT
    multiplier: IntUnitModel = EXACT_UNIT
    fp: FpTruncModel = FpTruncModel(0)

    def __post_init__(self):
        self.adder.check("adder")
        self.multiplier.check("multiplier")
        self.fp.check()
        if self.paradigm is Paradigm.ACCURATE:
            if not (self.adder.is_exact and self.multiplier.is_exact and self.fp.is_exact):
                raise ConfigError("accurate paradigm requires exact units and no fp truncation")

    @staticmethod
    def accurate() -> "ArithBackend":
        return ArithBackend(Paradigm.ACCURATE)

    @staticmethod
    def approximate(
        adder: IntUnitModel = EXACT_UNIT,
        multiplier: IntUnitModel = EXACT_UNIT,
        fp_bits: int = 0,
    ) -> "ArithBackend":
        return ArithBackend(Paradigm.APPROXIMATE, adder, multiplier, FpTruncModel(fp_bits))

    def label(self) -> str:
        if self.paradigm is Paradigm.ACCURATE:
            return "accurate"
        parts = [self.adder.label(), self.multiplier.label()]
        if self.fp.bits:
            parts.append(f"fp_trunc({self.fp.bits})")
        return "+".join(parts)


def backend_from_dict(doc: dict) -> ArithBackend:
    """Backend from a config fragment {paradigm, adder:{kind,k}, multiplier:{kind,k}, fp_trunc_bits}."""
    if not isinstance(doc, dict):
        raise ConfigError(f"backend must be an object, got {doc!r}")
    try:
        paradigm = Paradigm(doc.get("paradigm", "approximate"))
    except ValueError:
        raise ConfigError(f"unknown paradigm {doc.get('paradigm')!r}") from None

    def unit(key: str) -> IntUnitModel:
        frag = doc.get(key)
        if frag is None:
            return EXACT_UNIT
        if not isinstance(frag, dict) or "kind" not in frag:
            raise ConfigError(f"backend '{key}' must be an object with 'kind'")
        return IntUnitModel(str(frag["kind"]), int(frag.get("k", 0)))

    return ArithBackend(
        paradigm=paradigm,
        adder=unit("adder"),
        multiplier=unit("multiplier"),
        fp=FpTruncModel(int(doc.get("fp_trunc_bits", 0))),
    )


def backend_to_dict(backend: ArithBackend) -> dict:
    return {
        "paradigm": backend.paradigm.value,
        "adder": {"kind": backend.adder.kind, "k": backend.adder.param},
        "multiplier": {"kind": backend.multiplier.kind, "k": backend.multiplier.param},
        "fp_trunc_bits": backend.fp.bits,
    }


# ---------------------------------------------------------------------------
# 16-bit integer units (scalar)


def _s16(u: int) -> int:
    return u - 0x10000 if u & 0x8000 else u


def neg16(x: int) -> int:
    """Two's-complement negation pattern of x."""
    return (-x) & _MASK16


def add16(model: IntUnitModel, a: int, b: int) -> int:
    """16-bit add under the given adder model; signed int16 result."""
    a &= _MASK16
    b &= _MASK16
    k = model.param
    if model.kind == "exact" or model.is_exact:
        u = (a + b) & _MASK16
    elif model.kind == "loa":
        mask = (1 << k) - 1
        high = ((a >> k) + (b >> k)) & ((1 << (16 - k)) - 1)
        u = (high << k) | ((a | b) & mask)
    elif model.kind == "trunc_add":
        mask = (1 << k) - 1
        u = ((a & ~mask) + (b & ~mask)) & _MASK16
    elif model.kind == "seg_carry":
        u = 0
        for lo in range(0, 16, k):
            w = min(k, 16 - lo)
            m = (1 << w) - 1
            u |= ((((a >> lo) & m) + ((b >> lo) & m)) & m) << lo
    else:  # pragma: no cover - guarded by check()
        raise ConfigError(f"'{model.kind}' is not an adder model")
    return _s16(u)


def mul16(model: IntUnitModel, a: int, b: int) -> int:
    """16-bit multiply under the given multiplier model; signed int16 result."""
    a &= _MASK16
    b &= _MASK16
    k = model.param
    if model.kind == "log_approx":
        u = _mitchell(a, b) & _MASK16
    elif model.kind == "exact" or model.is_exact:
        u = (a * b) & _MASK16
    elif model.kind == "trunc_mul":
        u = (a * (b & ~((1 << k) - 1))) & _MASK16
    elif model.kind == "broken_array":
        u = (a * b) & _MASK16 & ~((1 << k) - 1)
    else:  # pragma: no cover - guarded by check()
        raise ConfigError(f"'{model.kind}' is not a multiplier model")
    return _s16(u)


def _mitchell(a: int, b: int) -> int:
    # log2(x) ~ k + (x - 2^k)/2^k; antilog of the characteristic/fraction sum.
    if a == 0 or b == 0:
        return 0
    k1 = a.bit_length() - 1
    k2 = b.bit_length() - 1
    m1 = a - (1 << k1)
    m2 = b - (1 << k2)
    frac = m1 * (1 << k2) + m2 * (1 << k1)  # (x1 + x2) * 2^(k1+k2)
    if frac < (1 << (k1 + k2)):
        return (1 << (k1 + k2)) + frac
    return 2 * frac


# ---------------------------------------------------------------------------
# 16-bit integer units (batch lanes, bit-identical to the scalar path)


def add16_batch(model: IntUnitModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64) & _MASK16
    b = np.asarray(b, dtype=np.int64) & _MASK16
    k = model.param
    if model.is_exact:
        u = (a + b) & _MASK16
    elif model.kind == "loa":
        mask = (1 << k) - 1
        high = ((a >> k) + (b >> k)) & ((1 << (16 - k)) - 1)
        u = (high << k) | ((a | b) & mask)
    elif model.kind == "trunc_add":
        mask = (1 << k) - 1
        u = ((a & ~mask) + (b & ~mask)) & _MASK16
    else:  # seg_carry
        u = np.zeros_like(a)
        for lo in range(0, 16, k):
            w = min(k, 16 - lo)
            m = (1 << w) - 1
            u |= ((((a >> lo) & m) + ((b >> lo) & m)) & m) << lo
    return np.where(u & 0x8000, u - 0x10000, u)


def mul16_batch(model: IntUnitModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64) & _MASK16
    b = np.asarray(b, dtype=np.int64) & _MASK16
    k = model.param
    if model.kind == "log_approx":
        u = _mitchell_batch(a, b) & _MASK16
    elif model.is_exact:
        u = (a * b) & _MASK16
    elif model.kind == "trunc_mul":
        u = (a * (b & ~((1 << k) - 1))) & _MASK16
    else:  # broken_array
        u = (a * b) & _MASK16 & ~((1 << k) - 1)
    return np.where(u & 0x8000, u - 0x10000, u)


def _mitchell_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # floor(log2) via frexp; exact for integers below 2^53.
    safe_a = np.maximum(a, 1)
    safe_b = np.maximum(b, 1)
    k1 = np.frexp(safe_a.astype(np.float64))[1].astype(np.int64) - 1
    k2 = np.frexp(safe_b.astype(np.float64))[1].astype(np.int64) - 1
    p1 = np.int64(1) << k1
    p2 = np.int64(1) << k2
    m1 = safe_a - p1
    m2 = safe_b - p2
    frac = m1 * p2 + m2 * p1
    base = p1 * p2
    out = np.where(frac < base, base + frac, 2 * frac)
    return np.where((a == 0) | (b == 0), np.int64(0), out)


# ---------------------------------------------------------------------------
# float64 operand truncation


def trunc_mantissa(x: float, bits: int) -> float:
    """Clear the low `bits` IEEE-754 mantissa bits of x (non-finite passes through)."""
    if bits == 0 or not math.isfinite(x):
        return x
    (u,) = struct.unpack("<Q", struct.pack("<d", x))
    u &= ~((1 << bits) - 1)
    (y,) = struct.unpack("<d", struct.pack("<Q", u))
    return y


def trunc_mantissa_batch(x: np.ndarray, bits: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if bits == 0:
        return x
    u = x.view(np.uint64) & np.uint64(~((1 << bits) - 1) & 0xFFFFFFFFFFFFFFFF)
    y = u.view(np.float64)
    return np.where(np.isfinite(x), y, x)


_FP_BINOPS = ("add", "sub", "mul", "div")
_FP_UNOPS = ("tan", "arctan")


def fp_op(model: FpTruncModel, op: str, a: float, b: float | None = None) -> float:
    """Apply one float op with truncated operands; the op itself is exact double math."""
    ta = trunc_mantissa(float(a), model.bits)
    if op in _FP_UNOPS:
        return math.tan(ta) if op == "tan" else math.atan(ta)
    if b is None:
        raise EvalError(f"fp op '{op}' needs two operands")
    tb = trunc_mantissa(float(b), model.bits)
    if op == "add":
        return ta + tb
    if op == "sub":
        return ta - tb
    if op == "mul":
        return ta * tb
    if op == "div":
        if tb == 0.0:
            raise EvalError("div-by-zero")
        return ta / tb
    raise EvalError(f"unknown fp op '{op}'")


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
