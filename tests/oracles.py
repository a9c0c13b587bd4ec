"""Reference implementations the suite checks the package against.

Everything here reaches each result by a different route than the package
does: per-bit ripple loops instead of word arithmetic, partial-product
column sums instead of masked products, hex-string surgery instead of bit
casts, big-int graph walks instead of the wrapping interpreter. Agreement
between the two is then evidence rather than tautology.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

MASK16 = 0xFFFF


def signed16(u: int) -> int:
    u &= MASK16
    return u - 0x10000 if u >= 0x8000 else u


def ripple_add(x: int, y: int, width: int) -> int:
    """Bit-serial adder; the carry out of the top bit is dropped."""
    out = 0
    carry = 0
    for i in range(width):
        s = ((x >> i) & 1) + ((y >> i) & 1) + carry
        out |= (s & 1) << i
        carry = s >> 1
    return out


def ref_exact_add(a: int, b: int) -> int:
    return signed16(ripple_add(a & MASK16, b & MASK16, 16))


def ref_loa(a: int, b: int, k: int) -> int:
    """Lower-OR adder: low k result bits are per-bit OR, high bits a carry
    chain that starts at zero."""
    a &= MASK16
    b &= MASK16
    low = 0
    for i in range(k):
        low |= (((a >> i) & 1) | ((b >> i) & 1)) << i
    high = ripple_add(a >> k, b >> k, 16 - k)
    return signed16((high << k) | low)


def ref_trunc_add(a: int, b: int, k: int) -> int:
    def clear_low(x):
        out = 0
        for i in range(k, 16):
            out |= ((x >> i) & 1) << i
        return out

    return signed16(ripple_add(clear_low(a & MASK16), clear_low(b & MASK16), 16))


def ref_seg_carry(a: int, b: int, s: int) -> int:
    """Independent s-bit segments; no carry crosses a segment boundary."""
    a &= MASK16
    b &= MASK16
    out = 0
    lo = 0
    while lo < 16:
        w = min(s, 16 - lo)
        m = (1 << w) - 1
        out |= ripple_add((a >> lo) & m, (b >> lo) & m, w) << lo
        lo += w
    return signed16(out)


def ref_trunc_mul(a: int, b: int, k: int) -> int:
    """Shift-and-add multiply that never generates the partial products of
    b's low k bits."""
    a &= MASK16
    b &= MASK16
    acc = 0
    for i in range(k, 16):
        if (b >> i) & 1:
            acc += a << i
    return signed16(acc)


def ref_broken_array(a: int, b: int, k: int) -> int:
    """Array multiplier with the sum outputs of the k low columns stuck at
    zero; column carries still propagate."""
    a &= MASK16
    b &= MASK16
    out = 0
    carry = 0
    for col in range(32):
        total = carry
        for i in range(16):
            j = col - i
            if 0 <= j < 16:
                total += ((a >> i) & 1) * ((b >> j) & 1)
        if col >= k:
            out |= (total & 1) << col
        carry = total >> 1
    return signed16(out)


def ref_mitchell(a: int, b: int) -> int:
    """Mitchell multiply from the log identity, evaluated in exact rationals.

    log2(x) is approximated by k + (x/2^k - 1); the antilog of the summed
    characteristic and fractions lands on an integer in both branch cases.
    """
    a &= MASK16
    b &= MASK16
    if a == 0 or b == 0:
        return 0
    k1 = a.bit_length() - 1
    k2 = b.bit_length() - 1
    f = (Fraction(a, 1 << k1) - 1) + (Fraction(b, 1 << k2) - 1)
    if f < 1:
        r = (1 + f) * (1 << (k1 + k2))
    else:
        r = f * (1 << (k1 + k2 + 1))
    assert r.denominator == 1
    return signed16(int(r))


# ---------------------------------------------------------------------------
# float mantissa truncation, via the hex representation


def ref_trunc_mantissa(x: float, bits: int) -> float:
    if bits == 0 or not math.isfinite(x):
        return x
    h = float(x).hex()
    sign = ""
    if h.startswith("-"):
        sign, h = "-", h[1:]
    mant, _, exp = h.partition("p")
    lead, _, frac = mant.partition(".")
    m = int((frac + "0" * 13)[:13], 16)  # the 52 stored fraction bits
    m &= ~((1 << bits) - 1)
    return float.fromhex(f"{sign}{lead}.{m:013x}p{exp}")


# ---------------------------------------------------------------------------
# unbounded big-int evaluation of an integer graph


def eval_unbounded(graph, inputs):
    """Evaluate with Python ints, no wrapping anywhere.

    Returns (outputs, values-by-node-id). Division must be exact.
    """
    from dhac import Op

    in_vals = dict(zip(graph.inputs, [int(v) for v in inputs]))
    vals: dict[str, int] = {}
    for n in graph.nodes:  # each node comes after its operands
        nid = n.id
        if n.op is Op.INPUT:
            vals[nid] = in_vals[nid]
        elif n.op is Op.CONST:
            vals[nid] = int(n.value)
        elif n.op in (Op.OUTPUT, Op.EXPORT):
            vals[nid] = vals[n.operands[0]]
        else:
            x, y = vals[n.operands[0]], vals[n.operands[1]]
            if n.op is Op.ADD:
                vals[nid] = x + y
            elif n.op is Op.SUB:
                vals[nid] = x - y
            elif n.op is Op.MUL:
                vals[nid] = x * y
            else:
                assert y != 0 and x % y == 0, "oracle only divides exactly"
                vals[nid] = x // y
    return [vals[o] for o in graph.outputs], vals


def residue_rational(graph, inputs, m: int) -> int:
    """The single output's exact rational value mapped into Z_m, or -1 where a divisor is no unit mod m.

    Every value is a Fraction in lowest terms, so no quotient is rounded. A
    value p/q maps to p * q^-1 mod m: q stays a unit mod m while every
    divisor's numerator is one, and the map then respects +, -, * and
    division.
    """
    from dhac import Op

    ops = {Op.ADD: operator.add, Op.SUB: operator.sub, Op.MUL: operator.mul, Op.DIV: operator.truediv}
    vals = dict(zip(graph.inputs, (Fraction(int(v)) for v in inputs)))
    for n in graph.nodes:  # each node comes after its operands
        if n.op is Op.CONST:
            vals[n.id] = Fraction(int(n.value))
        elif n.op in (Op.OUTPUT, Op.EXPORT):
            vals[n.id] = vals[n.operands[0]]
        elif n.op is not Op.INPUT:
            x, y = (vals[o] for o in n.operands)
            if n.op is Op.DIV and math.gcd(y.numerator, m) != 1:
                return -1
            vals[n.id] = ops[n.op](x, y)
    (out,) = (vals[o] for o in graph.outputs)
    return out.numerator * pow(out.denominator, -1, m) % m


def eval_truncated(graph, inputs, bits: int):
    """Evaluate on exact units with each float operand truncated where it is read.

    Truncation is applied per operand, at every read, through the hex
    route above; int16 nodes wrap and widen exactly before they truncate.
    Returns (outputs, exports), every value as produced, untruncated.
    """
    from dhac import Op, ScalarType

    types: dict = {}  # a pass-through node takes its operand's type
    vals = dict(zip(graph.inputs, inputs))
    exports = {}
    for n in graph.nodes:  # each node comes after its operands
        nid = n.id
        passing = n.op in (Op.OUTPUT, Op.EXPORT)
        types[nid] = types[n.operands[0]] if passing else n.dtype or graph.dtype
        if n.op is Op.INPUT:
            continue
        if n.op is Op.CONST:
            vals[nid] = float(n.value) if types[nid] is ScalarType.FLOAT64 else n.value
        elif passing:
            vals[nid] = vals[n.operands[0]]
            if n.op is Op.EXPORT:
                exports[nid] = vals[nid]
        elif types[nid] is ScalarType.INT16:
            x, y = (vals[o] for o in n.operands)
            ops = {Op.ADD: x + y, Op.SUB: x - y, Op.MUL: x * y}
            assert n.op in ops, "oracle runs no int16 division"
            vals[nid] = signed16(ops[n.op])
        else:
            x, *rest = (ref_trunc_mantissa(float(vals[o]), bits) for o in n.operands)
            y = rest[0] if rest else x
            ops = {Op.ADD: operator.add, Op.SUB: operator.sub, Op.MUL: operator.mul, Op.DIV: operator.truediv}
            vals[nid] = math.tan(x) if n.op is Op.TAN else math.atan(x) if n.op is Op.ARCTAN else ops[n.op](x, y)
    return [vals[o] for o in graph.outputs], exports


def census(graph) -> dict[str, int]:
    """Arithmetic node counts by a scan of the nodes, op by op; tan and arctan do not count."""
    from dhac import Op

    add_sub = sum(1 for n in graph.nodes if n.op in (Op.ADD, Op.SUB))
    mul = sum(1 for n in graph.nodes if n.op is Op.MUL)
    div = sum(1 for n in graph.nodes if n.op is Op.DIV)
    return {"add_sub": add_sub, "mul": mul, "div": div, "total": add_sub + mul + div}


def mod_inverse(x: int, m: int) -> int:
    return pow(x, -1, m)


# ---------------------------------------------------------------------------
# closed forms for the builtin programs, from their documented grids


def fir_closed(coeffs, xs) -> int:
    return sum(c * x for c, x in zip(coeffs, xs))


def conv2x2_closed(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def euler_closed(y0, *coeffs, steps=10, h=16) -> int:
    """Forward sums of h * p(t) over the centered odd grid.

    coeffs are highest power first, then the constant term; the constant
    term enters unscaled (ten raw additions), every other power rides the
    step weight.
    """
    ts = [2 * n - (steps - 1) for n in range(steps)]
    c0 = coeffs[-1]
    powers = coeffs[:-1]  # c_order .. c_1
    total = y0
    for t in ts:
        total += c0
        for j, c in enumerate(powers):
            total += h * c * t ** (len(powers) - j)
    return total


def rk2_closed(y0, c2, c1, c0, steps=10, h=16) -> int:
    """Trapezoid steps over a shared unit grid; endpoint weight 1, interior
    weight 2. The constant term uses the off-lattice weights 17/19 by grid
    parity instead of the step weight."""
    ts = [n - steps // 2 for n in range(steps + 1)]
    total = y0
    for j, t in enumerate(ts):
        w = 1 if j in (0, steps) else 2
        g = c2 * h * t * t + c1 * h * t + c0 * (17 if j % 2 == 0 else 19)
        total += w * g
    return total


def rk3_closed(y0, c3, c2, c1, steps=10, h=16) -> int:
    """Simpson (1, 4, 1) stages over shared endpoints: weight 1 at the ends,
    2 on interior even grid points, 4 on odd ones. The square term is raw;
    odd powers carry the step weight."""
    ts = list(range(-steps, steps + 1))
    total = y0
    for j, t in enumerate(ts):
        if j in (0, 2 * steps):
            w = 1
        elif j % 2 == 0:
            w = 2
        else:
            w = 4
        g = c3 * h * t ** 3 + c2 * t * t + c1 * h * t
        total += w * g
    return total
