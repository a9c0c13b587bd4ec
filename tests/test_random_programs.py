"""Random programs as the oracle: properties every drawn graph must have.

(a) `evaluate` and `evaluate_batch` agree lane by lane under every backend
    campaigns and degenerate units use, and both agree with
    `oracles.eval_truncated` wherever it applies; where a lane fails, the
    batch fails at the first failing node in file order.
(b) On a drawn int16 single-output graph, `residues_batch` gives the exact
    rational output's image in Z_m, or -1 where a divisor is no unit, at
    each lane dtype's edge moduli; without division it also gives the int16
    result mod 2^k. Half the draws aim at the lane limits, so that a lane
    that overflows is found.
(c) A drawn graph survives its file format, and an operand pointed at a
    later node is refused.
(d) Instrumenting a drawn graph at `auto_sites` leaves every host output and
    export bit-identical, and every host failure the same, in both walks;
    the instrumented graph survives its file format.
(e) Soundness: an honest job is never positive, under RCC or under FBC.
    Both checks fail it today (strict xfails, ROADMAP item 4).
(f) The one-vector ring of `rcc_check` and `evaluate_mod` gives, lane by
    lane, the residues and the first failed round of `residues_batch` and
    `failed_rounds`, and the exact rational output's image: at each lane
    edge, and at moduli whose lcm has a divisor no unit that one of them
    can invert.
"""

import contextlib
import math
import struct

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import oracles as O
import strategies as S
from dhac import ArithBackend, DFGraph, DFNode, EvalError, IntUnitModel, Judgement, ModuleSet, NoInverseError, Op, RccVerdict
from dhac import Residue, ValidationError, builtin_spec, default_combos, draw_inputs, evaluate, evaluate_batch, evaluate_mod
from dhac import parse_program, rcc, serialize_program
from dhac.fbc import DEFAULT_DELTA, DEFAULT_STEPS, SentinelKind, instrument_seeded, judge
from dhac.programs import INTEGER_SHORTHANDS
from dhac.rcc import failed_rounds, rcc_check, residues_batch
from dhac.rng import substream
from graphs import div_by_const_graph, int_div_graph

EXACT = ArithBackend()
DEGENERATE = [
    ArithBackend(adder=IntUnitModel("loa", 0)),
    ArithBackend(adder=IntUnitModel("trunc_add", 0)),
    ArithBackend(adder=IntUnitModel("seg_carry", 16)),
    ArithBackend(multiplier=IntUnitModel("trunc_mul", 0)),
    ArithBackend(multiplier=IntUnitModel("broken_array", 0)),
]
TRUNCATING = [ArithBackend(fp_bits=10), ArithBackend(fp_bits=20)]
# the backends whose integer units compute exactly: `eval_truncated` is their reference
EXACT_UNITS = [EXACT, *DEGENERATE, *TRUNCATING]
BACKENDS = EXACT_UNITS + default_combos()


def _scalar(v) -> tuple:
    """A Python value as (type, bytes), so that 0.0 and -0.0 differ and an int never equals a float."""
    return (float, struct.pack("<d", v)) if type(v) is float else (type(v), v)


def _lane(lanes: np.ndarray, i: int) -> tuple:
    return _scalar(lanes[i].item()) if lanes.dtype in (np.int64, np.float64) else ("dtype", lanes.dtype)


def _run(f):
    try:
        return f(), None
    except EvalError as e:
        return None, e


def _int16_div(g: DFGraph) -> bool:
    types = g.node_types()
    return any(m.op is Op.DIV and types[m.id] is S.I16 for m in g.nodes)


def check_walks_agree(g: DFGraph, cols: list, backend: ArithBackend) -> None:
    n = len(cols[0])
    lanes = [_run(lambda: evaluate(g, [c[i].item() for c in cols], backend)) for i in range(n)]
    batch, error = _run(lambda: evaluate_batch(g, cols, backend))
    failed = [e for _, e in lanes if e is not None]
    if failed:
        pos = {nid: p for p, nid in enumerate(g.plan.ids)}
        first = min(pos[e.node_id] for e in failed)
        assert error is not None, backend.label()
        assert error.node_id == g.plan.ids[first]
        assert error.reason in {e.reason for e in failed if pos[e.node_id] == first}
        return
    assert error is None, (backend.label(), error)
    oracle = backend in EXACT_UNITS and not _int16_div(g)
    for i, (tr, _) in enumerate(lanes):
        assert [_scalar(v) for v in tr.outputs] == [_lane(o, i) for o in batch.outputs]
        assert list(tr.exports) == list(batch.exports)
        assert [_scalar(v) for v in tr.exports.values()] == [_lane(v, i) for v in batch.exports.values()]
        if oracle:
            outputs, exports = O.eval_truncated(g, [c[i].item() for c in cols], backend.fp_bits)
            assert [_scalar(v) for v in tr.outputs] == [_scalar(v) for v in outputs]
            assert {k: _scalar(v) for k, v in tr.exports.items()} == {k: _scalar(v) for k, v in exports.items()}


class TestScalarAndBatchWalks:
    """Property (a)."""

    @settings(max_examples=60)
    @given(S.jobs())
    def test_every_backend(self, job):
        g, cols = job
        for backend in BACKENDS:
            check_walks_agree(g, cols, backend)

    def test_a_failing_lane_fails_the_batch_at_its_node(self):
        # lane 0 divides by zero at 'd'; lane 1 is inexact earlier, at 'q'
        n = lambda nid, op, *xs: DFNode(nid, op, xs)
        nodes = [n("x", Op.INPUT), n("y", Op.INPUT), n("q", Op.DIV, "x", "y"), n("d", Op.DIV, "x", "q"), n("o", Op.OUTPUT, "d")]
        g = DFGraph("g", S.I16, nodes, ["x", "y"], ["o"])
        cols = [np.array([0, 3]), np.array([1, 2])]
        assert [str(_run(lambda: evaluate(g, [x, y], EXACT))[1]) for x, y in zip(*cols)] == [
            "div-by-zero at node 'd'",
            "inexact-div at node 'q'",
        ]
        assert str(_run(lambda: evaluate_batch(g, cols, EXACT))[1]) == "inexact-div at node 'q'"
        check_walks_agree(g, cols, EXACT)


# the last modulus each lane dtype holds, with its neighbours: int16 to 182, int32 to 46341, int64 to 3037000500
LANE_EDGES = (181, 182, 183, 46340, 46341, 46342, 3037000499, 3037000500, 3037000501)
# Jobs aimed at those lanes' limits t: inputs and constants whose residues sit near m - 1, and chains of
# sums and products. A sum of two such residues passes t, and its product with a third overflows the
# lanes unless the walk reduced the sum first.
EDGE_JOBS = S.jobs(S.lane_edge_values, kinds=("int16",), one_output=True, ops=S.add_mul, chain=True)


class TestResidues:
    """Property (b)."""

    @settings(max_examples=150)
    @given(st.one_of(S.jobs(kinds=("int16",), one_output=True), EDGE_JOBS))
    def test_exact_value_at_lane_edges_and_int16_result_mod_2k(self, job):
        g, cols = job
        lanes = [[c[i].item() for c in cols] for i in range(len(cols[0]))]
        for m in LANE_EDGES:
            assert residues_batch(g, cols, m).tolist() == [O.residue_rational(g, x, m) for x in lanes], m
        if not _int16_div(g):  # int16 results then wrap the exact ones mod 2^16
            (out,) = evaluate_batch(g, cols, EXACT).outputs
            exact = [O.eval_unbounded(g, x)[0][0] for x in lanes]
            for m in (2, 16, 256, 4096, 65536):
                assert residues_batch(g, cols, m).tolist() == (out % m).tolist() == [v % m for v in exact], m


@contextlib.contextmanager
def lane_bounds_checked():
    """Within it, every value the lane ring's table keeps must lie within its declared bound.

    The residue walk's values are (lanes, bound) pairs: its inputs, its
    constants, and every sum, difference, product and quotient it keeps.
    Each bound must itself be within the lane dtype's limit isqrt(max), so
    that two kept values add and multiply without overflow. Yields the list
    of bounds checked.
    """
    real, seen = rcc._walk, []

    def check(value):
        lanes, bound = value
        wide = np.asarray(lanes)
        if wide.dtype != object:
            assert bound <= math.isqrt(np.iinfo(wide.dtype).max), (wide.dtype, bound)
            wide = wide.astype(np.int64)
        assert np.all(np.abs(wide) <= bound), (wide, bound)
        seen.append(bound)
        return value

    def walk(graph, xs, ints, bits, lanes):
        if lanes:
            const, add, sub, mul, div = ints
            ints = (
                lambda v: check(const(v)),
                lambda a, b: check(add(a, b)),
                lambda a, b: check(sub(a, b)),
                lambda a, b: check(mul(a, b)),
                lambda a, b, nid: check(div(a, b, nid)),
            )
            xs = [check(x) for x in xs]
        return real(graph, xs, ints, bits, lanes=lanes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rcc, "_walk", walk)
        yield seen


class TestLaneBounds:
    """Every kept lane value of the residue walk within its bound, so no lane ever overflows."""

    @pytest.mark.parametrize("name", INTEGER_SHORTHANDS)
    def test_every_integer_builtin_at_the_default_moduli(self, name):
        spec = builtin_spec(name)
        cols = draw_inputs(spec, substream(16, "lane-bounds", name), 64)
        with lane_bounds_checked() as seen:
            got = residues_batch(spec.graph, cols, (3, 5, 7))
        assert got.tolist() == residues_batch(spec.graph, cols, (3, 5, 7)).tolist()
        assert len(seen) >= len(spec.graph.nodes) - 1

    @settings(max_examples=60)
    @given(EDGE_JOBS)
    def test_edge_jobs_at_lane_edges(self, job):
        g, cols = job
        for m in LANE_EDGES:
            with lane_bounds_checked() as seen:
                residues_batch(g, cols, m)
            assert seen


# Moduli for the one-vector ring: each lane edge alone, all of them at once (one lcm walk; object lanes in
# the batch), and sets where a divisor can be no unit mod the lcm yet a unit mod one of the moduli
RING_MODULI = [(m,) for m in LANE_EDGES] + [LANE_EDGES, (3, 5, 7), (3, 5), (4, 64), (6, 10, 15)]


def _verdict_of(residues: list, claim: int, moduli) -> RccVerdict:
    """The verdict a column of residues gives: the first mismatching round, counting unskipped rounds up to it."""
    failed = next((j for j, (r, m) in enumerate(zip(residues, moduli), 1) if r >= 0 and r != claim % m), None)
    ran = [r >= 0 for r in residues[: failed or len(moduli)]]
    judgement = Judgement.POSITIVE if failed else Judgement.NEGATIVE if any(ran) else Judgement.INCONCLUSIVE
    return RccVerdict(judgement, failed, sum(ran), tuple(m for m, r in zip(moduli, ran) if not r))


class TestScalarRing:
    """Property (f)."""

    @settings(max_examples=100)
    @given(st.one_of(S.jobs(kinds=("int16",), one_output=True), EDGE_JOBS), st.integers(-32768, 32767))
    @example((div_by_const_graph(3), [np.array([44, -3, 0])]), 44)  # 3 is no unit mod 15, but one mod 5
    @example((int_div_graph(), [np.array([7, 7, 7, -7]), np.array([3, 2, 6, 7])]), 7)  # y = 2, 3, 6: the lcm fallback
    def test_one_vector_equals_the_lanes(self, job, claim):
        g, cols = job
        lanes = [[c[i].item() for c in cols] for i in range(len(cols[0]))]
        exact = [None if _int16_div(g) else O.eval_unbounded(g, x)[0][0] for x in lanes]
        for moduli in RING_MODULI:
            batch = residues_batch(g, cols, moduli)
            rounds = failed_rounds(batch, np.full(len(lanes), claim), moduli)
            for i, x in enumerate(lanes):
                want = [O.residue_rational(g, x, m) for m in moduli]
                assert batch[:, i].tolist() == want, moduli
                for m, r in zip(moduli, want):
                    if r < 0:
                        with pytest.raises(NoInverseError):
                            evaluate_mod(g, x, m)
                    else:
                        assert evaluate_mod(g, x, m) == Residue(r, m)
                verdict = _verdict_of(want, claim, moduli)
                assert rcc_check(g, x, claim, ModuleSet(moduli)) == verdict
                assert rounds[i] == (verdict.failed_round or 0)
                if exact[i] is not None and -32768 <= exact[i] <= 32767:  # the honest claim
                    assert rcc_check(g, x, exact[i], ModuleSet(moduli)).judgement is Judgement.NEGATIVE


class TestFileFormat:
    """Property (c)."""

    @given(S.programs())
    def test_round_trip(self, g):
        g2 = parse_program(serialize_program(g))
        assert (g2.name, g2.dtype, g2.nodes, g2.inputs, g2.outputs) == (g.name, g.dtype, g.nodes, g.inputs, g.outputs)
        assert g2.plan == g.plan

    @given(S.programs(), st.data())
    def test_forward_operand_refused(self, g, data):
        readers = [p for p, m in enumerate(g.nodes) if m.operands]
        p = data.draw(st.sampled_from(readers))
        later = g.nodes[data.draw(st.integers(p, len(g.nodes) - 1))].id  # p itself is a self-reference
        node = g.nodes[p]
        k = data.draw(st.integers(0, len(node.operands) - 1))
        operands = node.operands[:k] + (later,) + node.operands[k + 1 :]
        nodes = g.nodes[:p] + [node._replace(operands=operands)] + g.nodes[p + 1 :]
        with pytest.raises(ValidationError) as e:
            DFGraph(g.name, g.dtype, nodes, g.inputs, g.outputs)
        assert str(e.value) == f"node '{node.id}': operand '{later}' must come before it in the file"


def _bits(v) -> tuple:
    """A scalar or lanes as (dtype, shape, bytes): equal only when bit-identical."""
    a = np.asarray(v)
    return a.dtype.str, a.shape, a.tobytes()


def check_host_untouched(g: DFGraph, instrumented: DFGraph, walk) -> None:
    """`walk` of the instrumented graph gives the host's outputs and exports, or fails where the host does."""
    host, error = _run(lambda: walk(g))
    rich, rich_error = _run(lambda: walk(instrumented))
    if error is not None:
        assert rich_error is not None and (rich_error.reason, rich_error.node_id) == (error.reason, error.node_id)
        return
    assert rich_error is None, rich_error
    assert [_bits(v) for v in rich.outputs] == [_bits(v) for v in host.outputs]
    assert list(rich.exports)[: len(host.exports)] == list(host.exports)
    assert [_bits(rich.exports[k]) for k in host.exports] == [_bits(v) for v in host.exports.values()]


class TestInstrumenting:
    """Property (d)."""

    @settings(max_examples=80)
    @given(S.jobs(), st.integers(0, 2**16))
    def test_host_is_untouched(self, job, seed):
        g, cols = job
        types = g.node_types()
        sites = sum(m.op in S.ARITHMETIC and types[m.id] is S.F64 for m in g.nodes)
        assume(sites)
        kinds = list(SentinelKind)[: min(sites, 3)]
        ins = instrument_seeded(g, kinds, None, seed, g.name, n=3, delta=1e-13)
        for backend in (EXACT, TRUNCATING[0]):
            for i in range(len(cols[0])):
                check_host_untouched(g, ins.graph, lambda h: evaluate(h, [c[i].item() for c in cols], backend))
            check_host_untouched(g, ins.graph, lambda h: evaluate_batch(h, cols, backend))
        assert parse_program(serialize_program(ins.graph)) == ins.graph


# A falsified soundness property is a known defect, not news: the same examples each run, and no shrinking.
SOUNDNESS = settings(max_examples=100, derandomize=True, phases=[Phase.explicit, Phase.generate])
UNSOUND = pytest.mark.xfail(strict=True, raises=AssertionError, reason="soundness certificate, ROADMAP item 4")


class TestSoundness:
    """Property (e). RCC rechecks the exact value, which a wrapped int16 step leaves (-2656 * -2656 gives
    -23552); an FBC tap's honest round-trip error can reach delta (a tan tap at -1.88e6 is 4.9e-5 off)."""

    @UNSOUND
    @SOUNDNESS
    @given(S.jobs(kinds=("int16",), one_output=True))
    def test_rcc_never_flags_an_exact_claim(self, job):
        g, cols = job
        for i in range(len(cols[0])):
            inputs = [c[i].item() for c in cols]
            trace, error = _run(lambda: evaluate(g, inputs, EXACT))
            if error is None:
                assert not rcc_check(g, inputs, trace.outputs[0]).positive, (inputs, trace.outputs)

    @UNSOUND
    @SOUNDNESS
    @given(S.jobs(kinds=("float64",)))
    def test_fbc_never_flags_an_exact_run(self, job):
        g, cols = job
        sites = sum(m.op in S.ARITHMETIC for m in g.nodes)  # every node of a float64 graph is float64
        assume(sites)
        ins = instrument_seeded(g, list(SentinelKind)[: min(sites, 3)], None, 0, g.name, n=DEFAULT_STEPS, delta=DEFAULT_DELTA)
        for i in range(len(cols[0])):
            trace, error = _run(lambda: evaluate(ins.graph, [c[i].item() for c in cols], EXACT))
            if error is None:
                verdict = judge(ins.sentinels, trace)
                assert not verdict.positive, [(r.site, r.kind.value, r.distance) for r in verdict.results if r.positive]
