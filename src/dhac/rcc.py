"""Residue recheck: re-run an integer dataflow in Z_m and compare residues.

The claimed result of an integer job is reduced mod each configured modulus
and compared with the residue obtained by evaluating the whole dataflow in
the residue ring. A mismatch in any round is a Positive verdict. Soundness
needs the exact final value to fit in int16: int16 ops commute with
reduction mod 2^16, so intermediates may wrap freely, but a program whose
unbounded result leaves [-2^15, 2^15) gets a wrapped claim whose residue no
longer matches the ring evaluation, and honest results can be flagged. The
shipped builtins keep their outputs in range over the documented bounds.

Division in the ring needs a modular inverse, so rounds whose divisor is
not a unit modulo the round's modulus are skipped; if every round is
skipped the verdict is Inconclusive.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

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


def to_residue(x: int, m: int) -> Residue:
    mod = _modulus(m)
    if not integer(x):
        raise ModulusError(f"cannot reduce {x!r} mod {mod}: must be an integer")
    return Residue(int(x) % mod, m)


def _same_modulus(a: Residue, b: Residue) -> int:
    if a.modulus != b.modulus:
        raise ModulusError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    return a.modulus


def ring_add(a: Residue, b: Residue) -> Residue:
    m = _same_modulus(a, b)
    return Residue((a.value + b.value) % m, m)


def ring_sub(a: Residue, b: Residue) -> Residue:
    m = _same_modulus(a, b)
    return Residue((a.value - b.value) % m, m)


def ring_mul(a: Residue, b: Residue) -> Residue:
    m = _same_modulus(a, b)
    return Residue((a.value * b.value) % m, m)


# b^-1 mod m, or -1 where gcd(b, m) > 1; on Python ints and on lanes alike
_inverse = np.frompyfunc(lambda b, m: pow(b, -1, m) if math.gcd(b, m) == 1 else -1, 2, 1)


def ring_inv(a: Residue) -> Residue:
    """Multiplicative inverse, by the rule the residue walk uses.

    Exists iff gcd(value, modulus) == 1; prime moduli make every nonzero
    residue a unit, but composite moduli work too when the gcd is 1.
    """
    inv = _inverse(a.value, a.modulus)
    if inv < 0:
        raise NoInverseError(f"{a.value} has no inverse mod {a.modulus}")
    return Residue(inv, a.modulus)


def ring_div(a: Residue, b: Residue) -> Residue:
    _same_modulus(a, b)
    return ring_mul(a, ring_inv(b))


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


# Lane dtypes, narrowest first, each with its limit t = isqrt(dtype max):
# two values of magnitude <= t add and multiply without overflow. The
# residue walk takes the first whose limit holds the largest residue.
_LANES = tuple((t, math.isqrt(np.iinfo(t).max)) for t in (np.int16, np.int32, np.int64))


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


def _residues(graph: DFGraph, inputs, moduli, lanes: bool) -> np.ndarray:
    """The (k, n) output residues of `inputs` under `moduli`; every residue call enters here."""
    mods = _moduli(moduli)
    _require_residue_graph(graph)
    n, xs = _inputs(graph, inputs, lanes)
    top = max(mods) - 1
    dtype, limit = next(((t, lim) for t, lim in _LANES if top <= lim), (object, 0))
    m = np.array(mods, dtype=dtype)[:, None]
    no_inverse = np.zeros((len(mods), n), dtype=bool)
    # Lazy reduction: each value is a pair (lanes, bound), where the bound
    # on the lanes' magnitude follows from the graph alone. Inputs,
    # constants and quotients are reduced, bound `top`; a sum or difference
    # adds its operands' bounds and a product multiplies them. A result is
    # reduced mod m only where its bound passes the lanes' limit, so two
    # kept values never overflow the lanes when added or multiplied.
    # Object lanes (limit 0) reduce after every op.
    def lazy(op, combine):
        def apply(a, b):
            bound = combine(a[1], b[1])
            return (op(a[0], b[0]) % m, top) if bound > limit else (op(a[0], b[0]), bound)

        return apply

    def div(a, b, nid):  # the inverse needs a reduced divisor; a * inv fits the lanes
        inv = _inverse(b[0] % m, m).astype(dtype)
        no_inverse[...] |= inv < 0
        return a[0] * inv % m, top

    ring = (
        lambda v: (int(v) % m, top),
        lazy(operator.add, operator.add),
        lazy(operator.sub, operator.add),
        lazy(operator.mul, operator.mul),
        div,
    )
    # each input, an int or an int16 column, becomes one (1, n) row; only an int's int64 row needs the cast
    xs = [((np.reshape(x, (1, -1)) % m).astype(dtype, copy=False), top) for x in xs]
    ((out, _),), _ = _walk(graph, xs, ring, 0, lanes=True)
    return np.where(no_inverse, -1, out % m).astype(np.result_type(dtype, np.int64))


def failed_rounds(residues: np.ndarray, claimed, moduli) -> np.ndarray:
    """Per lane, the 1-based round of the first mismatch in module order, or 0.

    `residues` is residues_batch's (k, n) result. A round whose residue is
    -1 (no inverse) is skipped: it never fails, but keeps its number.
    """
    m = np.array([int(x) for x in moduli], dtype=residues.dtype)[:, None]
    mismatch = (residues >= 0) & (residues != np.asarray(claimed, dtype=np.int64) % m)
    return np.where(mismatch.any(axis=0), mismatch.argmax(axis=0) + 1, 0)


def evaluate_mod(graph: DFGraph, inputs, m: int) -> Residue:
    """Evaluate the dataflow in Z_m and return the output residue.

    The graph must be all-integer with a single output. Division raises
    NoInverseError when a divisor is not a unit mod m.
    """
    value = int(_residues(graph, inputs, (m,), lanes=False)[0, 0])
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

    One residue walk gives every round's residue; the verdict reports the
    first mismatching round and counts the rounds up to it. Rounds that
    hit a non-invertible division are skipped; if all rounds are skipped
    the verdict is Inconclusive.
    """
    modules = modules if modules is not None else ModuleSet()
    claimed = _check_scalar_input(claimed, ScalarType.INT16, "claimed result")

    residues = _residues(graph, inputs, modules, lanes=False)[:, 0]
    failed = int(failed_rounds(residues[:, None], claimed, modules)[0])
    ran = residues[: failed or len(modules)] >= 0
    rounds_run = int(ran.sum())
    judgement = Judgement.POSITIVE if failed else Judgement.NEGATIVE if rounds_run else Judgement.INCONCLUSIVE
    return RccVerdict(judgement, failed or None, rounds_run, tuple(m for m, r in zip(modules, ran) if not r))
