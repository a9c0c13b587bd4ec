"""Residue recheck: re-run an integer dataflow in Z_m and compare residues.

The claimed result of an integer job is reduced mod each configured modulus
and compared with the residue obtained by evaluating the whole dataflow in
the residue ring. A mismatch in any round is a Positive verdict. Soundness
needs the exact final value to fit in int16: int16 ops commute with
reduction mod 2^16, so intermediates may wrap freely, but a program whose
unbounded result leaves [-2^15, 2^15) gets a wrapped claim whose residue no
longer matches the ring evaluation, and honest results can be flagged. The
shipped builtins keep their outputs in range over the documented bounds.

The ring runs in `interp._walk` in two forms, as the int16 units do. One
input vector (`rcc_check`, `evaluate_mod`) walks Python ints mod the lcm L
of the moduli once, and each residue is the output mod its m: reduction
Z_L -> Z_m is a ring map for m | L, and a unit's inverse mod L reduces to
its inverse mod m. A batch (`residues_batch`) walks (k, n) numpy lanes,
one row per modulus, reducing lazily by a rounded reciprocal rather than
integer `%` (see `_lane_ring`).

Division in the ring needs a modular inverse, so rounds whose divisor is
not a unit modulo the round's modulus are skipped; if every round is
skipped the verdict is Inconclusive.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ModulusError, NoInverseError, ValidationError, integer, unique
from .graph import DFGraph, Judgement, ScalarType
from .interp import _check_scalar_input, _inputs, _walk


@dataclass(frozen=True)
class Residue:
    value: int
    modulus: int

    def __post_init__(self):
        m, v = _modulus(self.modulus), self.value
        if not integer(v) or not 0 <= v < m:
            raise ModulusError(f"residue {v!r} out of range for modulus {m}: must be an integer in [0, {m})")


@lru_cache(maxsize=64)  # one table per modulus in use: the moduli and each module set's lcm
def _ring(m: int) -> tuple:
    """Z_m on Python ints, as `_walk`'s (const, add, sub, mul, div): every result is in [0, m).

    Division multiplies by the divisor's inverse; a divisor that is no unit
    mod m (gcd > 1) raises NoInverseError.
    """

    def div(a, b, nid=None):
        try:
            return a * pow(b, -1, m) % m
        except ValueError:  # pow's refusal of a non-unit
            raise NoInverseError(f"{b} has no inverse mod {m}") from None

    return lambda v: v % m, lambda a, b: (a + b) % m, lambda a, b: (a - b) % m, lambda a, b: a * b % m, div


_CONST, _ADD, _SUB, _MUL, _DIV = range(5)  # the ring tables' entries


def to_residue(x: int, m: int) -> Residue:
    mod = _modulus(m)
    if not integer(x):
        raise ModulusError(f"cannot reduce {x!r} mod {mod}: must be an integer")
    return Residue(_ring(mod)[_CONST](int(x)), m)


def _in_ring(op: int, a: Residue, b: Residue) -> Residue:
    """a op b by Z_m's table, m being both residues' modulus (ModulusError where they differ)."""
    if a.modulus != b.modulus:
        raise ModulusError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    return Residue(_ring(int(a.modulus))[op](int(a.value), int(b.value)), a.modulus)


def ring_add(a: Residue, b: Residue) -> Residue:
    return _in_ring(_ADD, a, b)


def ring_sub(a: Residue, b: Residue) -> Residue:
    return _in_ring(_SUB, a, b)


def ring_mul(a: Residue, b: Residue) -> Residue:
    return _in_ring(_MUL, a, b)


# b^-1 mod m, or -1 where gcd(b, m) > 1, elementwise on lanes
_inverse = np.frompyfunc(lambda b, m: pow(b, -1, m) if math.gcd(b, m) == 1 else -1, 2, 1)


def ring_inv(a: Residue) -> Residue:
    """Multiplicative inverse, by the rule the residue walk uses: 1 / a in Z_m.

    Exists iff gcd(value, modulus) == 1; prime moduli make every nonzero
    residue a unit, but composite moduli work too when the gcd is 1.
    """
    return _in_ring(_DIV, Residue(1, a.modulus), a)


def ring_div(a: Residue, b: Residue) -> Residue:
    return _in_ring(_DIV, a, b)


def _modulus(m) -> int:
    """m as a Python int by the one modulus rule, for residues and moduli alike: an integer >= 2."""
    if not integer(m):
        raise ModulusError(f"modulus must be an int >= 2, got {m!r}")
    if m < 2:
        raise ModulusError(f"modulus must be >= 2, got {int(m)}")
    return int(m)


def _moduli(moduli) -> list[int]:
    """moduli as Python ints: at least one, each by the modulus rule, no two equal (ModulusError)."""
    mods = unique([_modulus(m) for m in moduli], "modulus", ModulusError)
    if not mods:
        raise ModulusError("at least one modulus required")
    return mods


@dataclass(frozen=True)
class ModuleSet:
    """The moduli used for the check rounds, in round order."""

    moduli: tuple[int, ...] = (3, 5, 7)

    def __post_init__(self):
        _moduli(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __len__(self):
        return len(self.moduli)


def _require_residue_graph(graph: DFGraph) -> None:
    first = next((p for p, code in enumerate(graph.plan.codes) if code & 1), None)  # the first float64 step
    if first is not None:
        raise ValidationError(f"residue evaluation needs an all-integer graph; node '{graph.plan.ids[first]}' is float64")
    if len(graph.outputs) != 1:
        raise ValidationError(f"residue evaluation needs exactly one output, got {len(graph.outputs)}")


# Lane dtypes, narrowest first, each with its limit t = isqrt(dtype max), so
# that two values of magnitude <= t add and multiply without overflow, and
# the float dtype that rounds its lanes' quotients x / m (None: integer %).
# The residue walk takes the first whose limit holds the largest residue.
_LANES = tuple((t, math.isqrt(np.iinfo(t).max), real) for t, real in ((np.int16, np.float32), (np.int32, np.float64), (np.int64, None)))


def _reduce(x: np.ndarray, m: np.ndarray, recip: np.ndarray | None) -> np.ndarray:
    """x reduced mod the rows' moduli m: x % m, in [0, m), where the lanes have no reciprocals `recip`.

    Otherwise x - m * rint(x * recip), the quotient cast to m's dtype, and
    |result| <= m // 2: the two roundings in x * fl(1/m) stay within
    |x| / m * 2^(1 - p) of x / m for a p-bit significand, so while
    |x| < 2^(p - 2) (2^22 in float32, 2^51 in float64) the quotient is the
    integer nearest x / m, or either neighbour of a half-integer. Int16 and
    int32 lanes stay below both; a product m * q that wraps its lanes wraps
    back in the difference.
    """
    return x % m if recip is None else x - m * np.rint(x * recip).astype(m.dtype)


def _lane_ring(mods: list[int]):
    """The lanes for `mods` as (dtype, limit t, m, recip, bound); m is the moduli as a (k, 1) column.

    Int16 and int32 lanes reduce by their rows' reciprocals `recip`, to
    |r| <= m // 2; int64 and object lanes by `%` (`recip` is None), to
    [0, m). Every reduced value's magnitude is at most `bound`.
    """
    top = max(mods) - 1
    dtype, limit, real = next((lane for lane in _LANES if top <= lane[1]), (object, 0, None))
    m = np.array(mods, dtype=dtype)[:, None]
    return (dtype, limit, m, None, top) if real is None else (dtype, limit, m, 1 / m.astype(real), max(mods) // 2)


def residues_batch(graph: DFGraph, inputs, moduli) -> np.ndarray:
    """Output residues for a batch of input columns, in one walk over the graph.

    `moduli` is one modulus, giving shape (n,), or a sequence of k moduli,
    giving shape (k, n), by ModuleSet's rule (ModulusError). Division
    multiplies by the divisor's inverse mod m; a (modulus, lane) pair where
    any divisor has no inverse reads -1. The result is int64, or Python ints
    for moduli above 2^31.5. The columns must be 1-d integer arrays of one
    length within int16 (InputError).
    """
    single = isinstance(moduli, (int, np.integer))
    out = _residues(graph, inputs, [moduli] if single else moduli, lanes=True)
    return out[0] if single else out


def _residues(graph: DFGraph, inputs, moduli, lanes: bool):
    """The output residues of `inputs` under `moduli`, -1 where a divisor has no inverse; every residue call enters here.

    With `lanes` a (k, n) array from int16 columns, else a list of k ints from one input vector.
    """
    mods = _moduli(moduli)
    _require_residue_graph(graph)
    n, xs = _inputs(graph, inputs, lanes)
    return _lane_residues(graph, xs, mods, n) if lanes else _ring_residues(graph, xs, mods)


def _ring_residues(graph: DFGraph, xs: list, mods: list[int]) -> list[int]:
    """One input vector's residues: one walk mod lcm(mods), or one per modulus where a divisor is no unit mod the lcm."""

    def walk(m: int):  # the output (an input's is unreduced), or None where a divisor is no unit mod m
        try:
            (out,), _ = _walk(graph, list(xs), _ring(m), 0, lanes=False)
        except NoInverseError:
            return None
        return out

    whole = walk(math.lcm(*mods))
    outs = [whole] * len(mods) if whole is not None or len(mods) == 1 else [walk(m) for m in mods]
    return [-1 if r is None else r % m for r, m in zip(outs, mods)]


def _lane_residues(graph: DFGraph, xs: list, mods: list[int], n: int) -> np.ndarray:
    """The (k, n) residues of int16 input columns `xs`, one row per modulus."""
    dtype, limit, m, recip, bound = _lane_ring(mods)
    reduce = partial(_reduce, m=m, recip=recip)
    shift = [0 if recip is None else mi // 2 for mi in mods]  # constants enter in [-shift, m - shift), as `reduce` leaves lanes
    no_inverse = np.zeros((len(mods), n), dtype=bool)
    # Lazy reduction: each value is a pair (lanes, bound), where the bound
    # on the lanes' magnitude follows from the graph alone. Inputs,
    # constants and quotients enter reduced, at `bound`; a sum or difference
    # adds its operands' bounds and a product multiplies them. A result is
    # reduced only where its bound passes the lanes' limit, so two kept
    # values never overflow the lanes when added or multiplied. Balanced
    # residues (|r| <= m // 2) keep the bounds about half as large as
    # residues in [0, m) would. Object lanes (limit 0) reduce after every op.
    def lazy(op, combine):
        def apply(a, b):
            r, rb = op(a[0], b[0]), combine(a[1], b[1])
            return (reduce(r), bound) if rb > limit else (r, rb)

        return apply

    def div(a, b, nid):  # |a| <= t and the inverse is in [-1, m), so a * inv fits the lanes
        inv = _inverse(b[0], m).astype(dtype)
        no_inverse[...] |= inv < 0
        return reduce(a[0] * inv), bound

    ring = (
        lambda v: (np.array([(v + h) % mi - h for mi, h in zip(mods, shift)], dtype=dtype)[:, None], bound),
        lazy(operator.add, operator.add),
        lazy(operator.sub, operator.add),
        lazy(operator.mul, operator.mul),
        div,
    )
    xs = [(reduce(np.reshape(x, (1, -1))), bound) for x in xs]  # each int16 column, reduced into k rows
    ((out, _),), _ = _walk(graph, xs, ring, 0, lanes=True)
    out = reduce(out)
    out += m * (out < 0)  # into [0, m)
    return np.where(no_inverse, -1, out).astype(np.result_type(dtype, np.int64))


def failed_rounds(residues: np.ndarray, claimed, moduli) -> np.ndarray:
    """Per lane, the 1-based round of the first mismatch in module order, or 0.

    `residues` is residues_batch's (k, n) result, and `claimed` the n int16
    claims, reduced by the same lanes' rule. A round whose residue is -1 (no
    inverse) is skipped: it never fails, but keeps its number.
    """
    mods = [int(x) for x in moduli]
    dtype, _, m, recip, _ = _lane_ring(mods)
    got = _reduce(np.asarray(claimed).astype(dtype), m, recip)  # an int16 claim fits every lane dtype
    got += m * (got < 0)
    mismatch = (residues >= 0) & (residues != got)
    k = len(mods)
    last = (mismatch * np.arange(k, 0, -1)[:, None]).max(axis=0)  # k + 1 - the first mismatch's round
    return np.where(last > 0, k + 1 - last, 0)


def evaluate_mod(graph: DFGraph, inputs, m: int) -> Residue:
    """Evaluate the dataflow in Z_m and return the output residue.

    The graph must be all-integer with a single output. Division raises
    NoInverseError when a divisor is not a unit mod m.
    """
    (value,) = _residues(graph, inputs, (m,), lanes=False)
    if value < 0:
        raise NoInverseError(f"a divisor has no inverse mod {m}")
    return Residue(value, m)


@dataclass(frozen=True)
class RccVerdict:
    judgement: Judgement
    failed_round: int | None  # 1-based round index of the first mismatch
    rounds_run: int
    skipped: tuple[int, ...]  # moduli skipped because no inverse existed

    @property
    def positive(self) -> bool:
        return self.judgement is Judgement.POSITIVE


def rcc_check(graph: DFGraph, inputs, claimed: int, modules: ModuleSet | None = None) -> RccVerdict:
    """Compare the claimed result's residues against ring re-evaluation.

    One walk mod the moduli's lcm gives every round's residue (one walk per
    modulus where a divisor is no unit mod the lcm); the verdict reports
    the first mismatching round and counts the rounds up to it. Rounds that
    hit a non-invertible division are skipped; if all rounds are skipped
    the verdict is Inconclusive.
    """
    modules = modules if modules is not None else ModuleSet()
    claimed = _check_scalar_input(claimed, ScalarType.INT16, "claimed result")

    residues = _residues(graph, inputs, modules, lanes=False)
    failed = next((j for j, (r, m) in enumerate(zip(residues, modules), 1) if r >= 0 and r != claimed % m), 0)
    ran = [r >= 0 for r in residues[: failed or len(modules)]]
    rounds_run = sum(ran)
    judgement = Judgement.POSITIVE if failed else Judgement.NEGATIVE if rounds_run else Judgement.INCONCLUSIVE
    return RccVerdict(judgement, failed or None, rounds_run, tuple(m for m, r in zip(modules, ran) if not r))
