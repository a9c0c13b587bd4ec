"""Forward-backward sentinels: invertible float detours grafted onto a graph.

A sentinel taps one float node, pushes its value through n invertible
forward steps and then the inverse steps in reverse order, and exposes both
the tapped value and the round trip result as exports. Under exact IEEE-754
double arithmetic the round trip lands within a few ulps of the tapped
value (each step rounds once), orders of magnitude below any workable
threshold for moderate magnitudes, so a distance at or above the sentinel's
threshold indicates the job did not run on accurate hardware. Sentinels
never feed back into the host graph: its own outputs are unchanged bit for
bit.

Step kinds:
  add: x -> x + r_1 ... + r_n -> - r_n ... - r_1
  mul: x -> x * r_1 ... * r_n -> / r_n ... / r_1   (r_i in (0,1))
  tan: x -> arctan(x) -> tan(.)                    (single step)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .errors import DhacError, SiteError, TraceError, ValidationError, integer, typed
from .graph import (
    ADD64,
    DIV64,
    OUTPUT64,
    WIDEN,
    DFGraph,
    DFNode,
    Judgement,
    Op,
    ScalarType,
    Trace,
    parse_program_dict,
    program_to_dict,
)
from .rng import substream

DEFAULT_DELTA = 1e-13
DEFAULT_STEPS = 3
# 1,000 factors of at least 0.5 keep a tap with |x| >= 2**-22 a normal double; past
# that a mul detour underflows and its divisions cannot restore an honest tap.
MAX_STEPS = 1000

# Operand draw ranges, chosen for judge-margin reasons rather than taste.
#
# Addition steps sit far below a unit-scale site so the running sum keeps the
# site's binade: under round-to-nearest the detour then restores the tap
# exactly, while a truncating float unit discards probe tail bits at every
# step, one-sidedly, leaving a residue of a few truncation ulps. Steps of
# site-comparable size would instead align binades and let the truncation
# cancel on its own.
#
# Multiplication steps stay in [0.5, 1) so each backward division amplifies
# accumulated error by at most 2x; an operand near zero would blow rounding
# noise past the 1e-14 floor of the useful threshold band.
_ADD_STEP_RANGE = (1e-6, 1e-5)
_MUL_STEP_RANGE = (0.5, 1.0)


class SentinelKind(Enum):
    ADDITION = "add"
    MULTIPLICATION = "mul"
    TAN_ARCTAN = "tan"


def sentinel_kind(value: str, name: str, error: type[DhacError]) -> SentinelKind:
    """The kind whose value is `value`, or `error` naming the field `name` and the kinds."""
    try:
        return SentinelKind(value)
    except ValueError:
        raise error(f"{name}: unknown sentinel kind {value!r} (choose from {', '.join(k.value for k in SentinelKind)})") from None


def check_delta(delta: float, error: type[DhacError]) -> None:
    """The one threshold rule: `error` unless delta is a positive, finite number (an infinite one never fires)."""
    typed(delta, float, "delta", error)
    if not 0.0 < delta < math.inf:  # also rejects nan
        raise error(f"delta must be positive and finite, got {delta!r}")


def check_steps(n: int, error: type[DhacError]) -> None:
    """The one step-count rule: `error` unless a sentinel's step count n is an integer in [1, MAX_STEPS]."""
    typed(n, int, "sentinel n", error)
    if not 1 <= n <= MAX_STEPS:
        raise error(f"sentinel needs n >= 1 steps and at most {MAX_STEPS}, got {n!r}")


@dataclass(frozen=True)
class Sentinel:
    kind: SentinelKind
    site: str
    n: int
    operands: tuple[float, ...]
    delta: float = DEFAULT_DELTA
    entry_export: str | None = None  # set by instrument()
    exit_export: str | None = None

    def __post_init__(self):
        if type(self.kind) is not SentinelKind:
            raise ValidationError(f"sentinel kind must be a SentinelKind, got {self.kind!r}")
        if self.kind is SentinelKind.TAN_ARCTAN:
            if not integer(self.n) or self.n != 1 or self.operands:
                raise ValidationError("tan sentinel has n=1 and no operands")
        else:
            check_steps(self.n, ValidationError)
            if len(self.operands) != self.n:
                raise ValidationError(f"expected {self.n} operands, got {len(self.operands)}")
            if self.kind is SentinelKind.MULTIPLICATION and any(
                not 0.0 < r < 1.0 for r in self.operands
            ):
                raise ValidationError("mul sentinel operands must lie in (0, 1)")
        check_delta(self.delta, ValidationError)


def make_sentinel(
    kind: SentinelKind | str,
    site: str,
    rng,
    n: int = DEFAULT_STEPS,
    delta: float = DEFAULT_DELTA,
) -> Sentinel:
    """Draw sentinel operands from rng; tan sentinels take none."""
    kind = sentinel_kind(kind, "kind", ValidationError)
    check_steps(n, ValidationError)
    if kind is SentinelKind.TAN_ARCTAN:
        return Sentinel(kind=kind, site=site, n=1, operands=(), delta=delta)
    lo, hi = _MUL_STEP_RANGE if kind is SentinelKind.MULTIPLICATION else _ADD_STEP_RANGE
    ops = tuple(float(rng.uniform(lo, hi)) for _ in range(n))
    return Sentinel(kind=kind, site=site, n=n, operands=ops, delta=delta)


def detour_steps(s: Sentinel) -> list[tuple[Op, int | None]]:
    """The detour's steps in order, each as (op, index of its operand in s.operands, or None)."""
    if s.kind is SentinelKind.TAN_ARCTAN:
        return [(Op.ARCTAN, None), (Op.TAN, None)]
    forward, backward = (Op.ADD, Op.SUB) if s.kind is SentinelKind.ADDITION else (Op.MUL, Op.DIV)
    idx = range(len(s.operands))
    return [(forward, j) for j in idx] + [(backward, j) for j in reversed(idx)]


@dataclass(frozen=True)
class InstrumentedGraph:
    graph: DFGraph
    sentinels: tuple[Sentinel, ...]


def instrument(graph: DFGraph, sentinels) -> InstrumentedGraph:
    """Graft sentinels onto a graph; host nodes and outputs are untouched.

    Sites must be distinct float64 nodes of the host graph. The returned
    sentinels carry the export ids the judge reads.
    """
    types = graph.node_types()  # the host's nodes only: a site is never an earlier detour's node
    used = set(types)
    nodes = list(graph.nodes)
    placed = []
    f64 = ScalarType.FLOAT64
    dtype = None if graph.dtype is f64 else f64  # as a parsed file gives: a type only where it is not the graph's
    for i, s in enumerate(sentinels):
        if s.site not in types:
            raise SiteError(f"site '{s.site}' not in graph '{graph.name}'")
        if types[s.site] is not f64:
            raise SiteError(f"site '{s.site}' is {types[s.site].value}; sentinels need a float64 site")
        if any(p.site == s.site for p in placed):
            raise SiteError(f"duplicate sentinel site '{s.site}'")

        # the detour's operands (its const r_j at index j), then its entry export, steps and exit export
        pre = f"{s.site}__fbc{i}"
        detour = [DFNode(f"{pre}_r{j}", Op.CONST, (), float(r), dtype) for j, r in enumerate(s.operands)]
        entry = DFNode(f"{pre}_in", Op.EXPORT, (s.site,), None, dtype)
        detour.append(entry)
        for j, (op, r) in enumerate(detour_steps(s)):
            prev = detour[-1].id
            detour.append(DFNode(f"{pre}_s{j}", op, (prev,) if r is None else (prev, detour[r].id), None, dtype))
        detour.append(DFNode(f"{pre}_out", Op.EXPORT, (detour[-1].id,), None, dtype))
        for n in detour:
            if n.id in used:
                raise SiteError(f"instrumentation id collision: {n.id}")
            used.add(n.id)
        nodes += detour
        placed.append(replace(s, entry_export=entry.id, exit_export=detour[-1].id))

    g = DFGraph(f"{graph.name}+fbc", graph.dtype, nodes, list(graph.inputs), list(graph.outputs))
    return InstrumentedGraph(graph=g, sentinels=tuple(placed))


@dataclass(frozen=True)
class SentinelResult:
    kind: SentinelKind
    site: str
    distance: float
    positive: bool


@dataclass(frozen=True)
class FbcVerdict:
    judgement: Judgement
    results: tuple[SentinelResult, ...]

    @property
    def positive(self) -> bool:
        return self.judgement is Judgement.POSITIVE


def sentinel_distance(s: Sentinel, exports):
    """One sentinel's |tapped - roundtrip| over lanes, and whether it fires.

    It fires at or above its own `delta` and on a non-finite distance,
    which no accurate run produces.
    """
    try:
        a, b = exports[s.entry_export], exports[s.exit_export]
    except KeyError as e:
        raise TraceError(f"trace lacks sentinel export {e.args[0]!r}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    return d, ~np.isfinite(d) | (d >= s.delta)


def judge(sentinels, trace: Trace) -> FbcVerdict:
    """Threshold each sentinel's |tapped - roundtrip| against its delta; no graph is read."""
    results = []
    for s in sentinels:
        if s.entry_export is None or s.exit_export is None:
            raise TraceError(f"sentinel at '{s.site}' was never instrumented")
        d, pos = sentinel_distance(s, trace.exports)
        results.append(SentinelResult(kind=s.kind, site=s.site, distance=float(d), positive=bool(pos)))
    return FbcVerdict(
        judgement=Judgement.POSITIVE if any(r.positive for r in results) else Judgement.NEGATIVE,
        results=tuple(results),
    )


def auto_sites(graph: DFGraph, k: int) -> list[str]:
    """Pick k float64 tap points, preferring completed values over partials.

    Float arithmetic nodes that feed an Output directly come first (in file
    order); if those run out, remaining picks are spread evenly over all
    float arithmetic nodes.
    """
    ids, codes, first = graph.plan.ids, graph.plan.codes, graph.plan.a
    feeding_output = {first[p] for p, code in enumerate(codes) if code == OUTPUT64}
    arith = [p for p, code in enumerate(codes) if code & 1 and ADD64 <= code % WIDEN <= DIV64]  # float64 add to div
    picks = [ids[p] for p in arith if p in feeding_output]
    if len(picks) >= k:
        return picks[:k]
    pool = [ids[p] for p in arith if p not in feeding_output]
    need = k - len(picks)
    if need > len(pool):
        raise SiteError(f"graph '{graph.name}' has only {len(picks) + len(pool)} float sites, need {k}")
    step = len(pool) / need
    for i in range(need):
        picks.append(pool[int(i * step)])
    return picks


def instrument_seeded(graph: DFGraph, kinds, sites, seed: int, label: str, n: int, delta: float) -> InstrumentedGraph:
    """Instrument a graph with one sentinel per kind, at `sites` or at auto_sites.

    `sites` is None or one node id per kind. Each sentinel's operands come
    from substream(seed, "fbc", label, "sentinel", kind), so the same
    (seed, label) always grafts the same detours.
    """
    if sites is None:
        sites = auto_sites(graph, len(kinds))
    elif len(sites) != len(kinds):
        raise SiteError(f"{len(kinds)} kinds but {len(sites)} sites")
    sentinels = [
        make_sentinel(kind, site, substream(seed, "fbc", label, "sentinel", kind.value), n=n, delta=delta)
        for kind, site in zip(kinds, sites)
    ]
    return instrument(graph, sentinels)


# ---------------------------------------------------------------------------
# file round trip for the CLI


def instrumented_to_dict(ins: InstrumentedGraph) -> dict:
    return {
        "graph": program_to_dict(ins.graph),
        # the fields in Sentinel's order, with JSON types
        "sentinels": [{**asdict(s), "kind": s.kind.value, "operands": list(s.operands)} for s in ins.sentinels],
    }


def sentinels_from_dict(d: dict) -> tuple[Sentinel, ...]:
    """The sentinels of an instrumented file, all judge needs; its 'graph' is not parsed."""
    if not isinstance(d, dict) or "graph" not in d or "sentinels" not in d:
        raise ValidationError("instrumented file needs 'graph' and 'sentinels'")
    sentinels = []
    for i, sd in enumerate(typed(d["sentinels"], list, "'sentinels'", ValidationError)):
        at = f"sentinels[{i}]"
        typed(sd, dict, at, ValidationError)

        def field(key: str, kind: type, of: type | None = None):
            if key not in sd:
                raise ValidationError(f"{at} lacks '{key}'")
            return typed(sd[key], kind, f"{at}: '{key}'", ValidationError, of)

        sentinels.append(
            Sentinel(
                kind=sentinel_kind(field("kind", str), at, ValidationError),
                site=field("site", str),
                n=field("n", int),
                operands=tuple(field("operands", list, of=float)),
                delta=field("delta", float),
                entry_export=field("entry_export", str),
                exit_export=field("exit_export", str),
            )
        )
    return tuple(sentinels)


def instrumented_from_dict(d: dict) -> InstrumentedGraph:
    sentinels = sentinels_from_dict(d)
    return InstrumentedGraph(graph=parse_program_dict(d["graph"]), sentinels=sentinels)
