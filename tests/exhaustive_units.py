"""Exhaustive sweeps of the two closed-form units and of the residue lanes' reduction, against oracles built another way.

log_approx runs on all 2^32 operand pairs. Its oracle splits each operand by
`np.frexp` into characteristic and fraction, takes Mitchell's antilog branch
in float64 and wraps the result by integer remainder. Every value it forms
is a dyadic rational with at most 33 significant bits, so float64 holds it
exactly. seg_carry runs at every segment width 2..16 on all 2^16 first
operands against a stride-97 sweep of second operands plus edge patterns.
Its oracle is `oracles.ref_seg_carry` on lanes: a bit-serial ripple whose
carry restarts at every segment boundary. Both oracles first agree with the
scalar references in `oracles.py` on a random sample.

The residue walk's int32 lanes reduce by a float64 reciprocal
(`rcc._reduce`). The sweep runs every modulus 2..46341 those lanes hold on
values near k * m and k * m +- m / 2, where rounding the quotient is
hardest, for k spread over the whole range up to the lanes' limit squared,
and on the int32 extremes. Each result must be congruent to its value mod
m (by integer remainder) and at most m // 2 in magnitude. The int16 lanes'
float32 rule is checked on every int16 value and modulus by Tier-1
(`tests/test_rcc.py`); int64 and object lanes reduce by integer remainder.

pytest does not collect this file (the name lacks `test_`). Run it from the
repository root:

    PYTHONPATH=src python tests/exhaustive_units.py

It prints one line per sweep and exits 1 on the first mismatch. The
log_approx sweep takes a few minutes on one core.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import oracles as O
from dhac import IntUnitModel
from dhac.approx import add16_batch, mul16_batch
from dhac.rcc import _lane_ring, _reduce

PATTERNS = np.arange(1 << 16)  # every 16-bit pattern, as int64


def as_int16(u: np.ndarray) -> np.ndarray:
    """16-bit patterns in [0, 2^16) as the signed int16 lanes the units take."""
    return u.astype(np.uint16).view(np.int16)


def signed16(u: np.ndarray) -> np.ndarray:
    return (u % (1 << 16) + 0x8000) % (1 << 16) - 0x8000


def mitchell_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mitchell's product of 16-bit patterns a and b in float64, signed16-wrapped; 0 when either is 0."""
    ma, ea = np.frexp(a.astype(np.float64))  # a = ma * 2^ea with ma in [0.5, 1)
    mb, eb = np.frexp(b.astype(np.float64))
    f = (2 * ma - 1) + (2 * mb - 1)  # the two fractions x1 + x2, each in [0, 1)
    k = (ea - 1) + (eb - 1)  # the characteristics' sum
    r = np.where(f < 1, np.ldexp(1 + f, k), np.ldexp(f, k + 1))
    r = np.where((a == 0) | (b == 0), 0, r)
    return signed16(r.astype(np.int64))


def seg_carry_oracle(a: np.ndarray, b: np.ndarray, s: int) -> np.ndarray:
    """Segments of s bits added bit by bit; the carry restarts at every segment's low bit."""
    out = np.zeros_like(a)
    carry = np.zeros_like(a)
    for i in range(16):
        if i % s == 0:
            carry[:] = 0
        total = (a >> i & 1) + (b >> i & 1) + carry
        out |= (total & 1) << i
        carry = total >> 1
    return signed16(out)


def sweep(unit, model, firsts: np.ndarray, seconds: np.ndarray, oracle) -> bool:
    """True when the unit equals the oracle on every pair of firsts x seconds, checked block by block."""
    rows = max(1, (1 << 20) // seconds.size)  # about 2^20 lanes a block
    b = np.tile(seconds, rows)
    lanes_b = as_int16(b)
    for lo in range(0, firsts.size, rows):
        a = np.repeat(firsts[lo : lo + rows], seconds.size)
        got = unit(model, as_int16(a), lanes_b[: a.size])
        want = oracle(a, b[: a.size])
        bad = np.flatnonzero(got != want)
        if bad.size:
            i = bad[0]
            print(f"{model.label()}: operands {a[i]:#06x}, {b[i]:#06x} gave {got[i]}, want {want[i]} ({bad.size} in block)")
            return False
    return True


def int32_reduction_sweep() -> bool:
    """True when the int32 lanes' reduction is exact at every modulus they hold, on values where rounding is hardest."""
    top = 46341  # the largest int32-lane modulus; it joins each block so that the block runs on int32 lanes
    limit_sq = 46340**2
    fractions = np.linspace(-1, 1, 201)
    for lo in range(2, top + 1, 1024):
        mods = sorted(set(range(lo, min(lo + 1024, top + 1))) | {top})
        dtype, _, m, recip, _ = _lane_ring(mods)
        assert dtype is np.int32, dtype
        wide = m.astype(np.int64)
        h = wide // 2
        k = np.rint(fractions * (limit_sq // wide)).astype(np.int64)  # k * m spread over [-t², t²], both ends included
        offsets = np.concatenate([h + d for d in (-1, 0, 1)] + [-h + d for d in (-1, 0, 1)] + [np.full_like(h, d) for d in (-1, 0, 1)], axis=1)
        x = (k[:, :, None] * wide[:, :, None] + offsets[:, None, :]).reshape(len(mods), -1)
        x = np.concatenate([x, np.broadcast_to([[-(2**31), 2**31 - 1, -limit_sq, limit_sq]], (len(mods), 4))], axis=1)
        x = np.clip(x, -(2**31), 2**31 - 1)
        lanes = x.astype(np.int32)
        if (lanes * recip).dtype != np.float64:  # NumPy 1.x and 2.x promote these arrays alike; a scalar would differ
            print(f"int32 lanes: the quotient is {(lanes * recip).dtype}, want float64")
            return False
        r = _reduce(lanes, m, recip)
        assert r.dtype == np.int32, r.dtype
        r = r.astype(np.int64)
        bad = np.argwhere((np.abs(r) > h) | ((x - r) % wide != 0))
        if bad.size:
            i, j = bad[0]
            print(f"int32 lanes: {x[i, j]} mod {mods[i]} gave {r[i, j]} ({len(bad)} in block)")
            return False
    return True


def main() -> int:
    print(f"numpy {np.__version__}")
    # the lane oracles agree with the suite's scalar references on a random sample
    a, b = np.random.default_rng(0).integers(0, 1 << 16, (2, 2000))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert mitchell_oracle(a, b).tolist() == [O.ref_mitchell(x, y) for x, y in pairs]
    for s in range(2, 17):
        assert seg_carry_oracle(a, b, s).tolist() == [O.ref_seg_carry(x, y, s) for x, y in pairs]

    seconds = np.unique(np.r_[PATTERNS[::97], 0x5555, 0x7FFF, 0x8000, 0xAAAA, 0xFFFF])
    for s in range(2, 17):
        t0 = time.perf_counter()
        if not sweep(add16_batch, IntUnitModel("seg_carry", s), PATTERNS, seconds, lambda x, y: seg_carry_oracle(x, y, s)):
            return 1
        print(f"seg_carry({s}): 2^16 x {seconds.size} pairs equal the ripple oracle ({time.perf_counter() - t0:.1f} s)")
    t0 = time.perf_counter()
    if not sweep(mul16_batch, IntUnitModel("log_approx"), PATTERNS, PATTERNS, mitchell_oracle):
        return 1
    print(f"log_approx: all 2^32 pairs equal the frexp oracle ({time.perf_counter() - t0:.1f} s)")
    t0 = time.perf_counter()
    if not int32_reduction_sweep():
        return 1
    print(f"int32 residue lanes: every modulus 2..46341 reduces exactly at the rounding edges ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
