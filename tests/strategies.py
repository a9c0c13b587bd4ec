"""Hypothesis strategies for random programs.

A drawn graph is in file order: each node draws its operands from the nodes
before it, outputs and exports included, so a value may feed several
readers and an output may feed a later step. Graphs are int16, float64 or
mixed; a node whose type differs from the graph's carries it, and no other
node does, as `serialize_program` writes them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dhac import DFGraph, DFNode, Op, ScalarType

I16, F64 = ScalarType.INT16, ScalarType.FLOAT64
ARITHMETIC = (Op.ADD, Op.SUB, Op.MUL, Op.DIV)
FLOAT_ONLY = (Op.TAN, Op.ARCTAN)

int16_values = st.one_of(st.integers(-4, 4), st.integers(-32768, 32767))
# int16 values aimed at the residue walk's lane limits: small negatives sit at m - 1 to m - 3 for every
# modulus, 180 and 181 near the top of the int16 lanes' moduli (181 to 183), and the int16 extremes
lane_edge_values = st.sampled_from([-3, -2, -1, 180, 181, -182, 32767, -32768])
float64_values = st.one_of(
    st.floats(-4, 4, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, -0.0, 0.5])
)

# the fixed choices, built once: a strategy built anew at every step costs more than its draw
scalar_types = st.sampled_from([I16, F64])
int16_ops = st.sampled_from(ARITHMETIC)
add_mul = st.sampled_from([Op.ADD, Op.MUL])
float64_ops = st.sampled_from(ARITHMETIC + FLOAT_ONLY)
step_kinds = {  # by one_output
    False: st.sampled_from(["arithmetic", "arithmetic", "arithmetic", "export", "output"]),
    True: st.sampled_from(["arithmetic", "arithmetic", "arithmetic", "export"]),
}


def _pick(draw, ids: list):
    """One of `ids`, drawn by its index."""
    return ids[draw(st.integers(0, len(ids) - 1))]


@st.composite
def programs(
    draw, kinds=("int16", "float64", "mixed"), one_output=False, ops=int16_ops, chain=False, values=int16_values
) -> DFGraph:
    """A valid graph: its inputs, then constants, then steps that each read nodes before them.

    `kinds` are the graph kinds to draw from; a `one_output` graph has
    exactly one output, of its last node. int16 steps draw their op from
    `ops` and int16 constants their value from `values`; with `chain`, an
    arithmetic step's first operand is the node before it where it can be.
    """
    kind = draw(st.sampled_from(kinds))
    gtype = draw(scalar_types) if kind == "mixed" else ScalarType(kind)
    node_type = (lambda: draw(scalar_types)) if kind == "mixed" else (lambda: gtype)
    nodes: list[DFNode] = []
    types: dict[str, ScalarType] = {}  # each node's type, by id
    input_ids, output_ids = [], []

    def add(op, t, operands=(), value=None, pass_through=False):
        nid = f"n{len(nodes)}"
        dtype = None if pass_through or t is gtype else t
        nodes.append(DFNode(nid, op, tuple(operands), value, dtype))
        types[nid] = t
        return nid

    for _ in range(draw(st.integers(1, 3))):
        input_ids.append(add(Op.INPUT, node_type()))
    for _ in range(draw(st.integers(0, 2))):
        t = node_type()
        add(Op.CONST, t, value=draw(values if t is I16 else float64_values))
    for _ in range(draw(st.integers(1, 10))):
        t = node_type()
        readable = [nid for nid in types if types[nid] is I16] if t is I16 else list(types)
        if not readable:  # an int16 step with no int16 value before it
            t, readable = F64, list(types)
        step = draw(step_kinds[one_output])
        if step != "arithmetic":
            x = _pick(draw, list(types))
            nid = add(Op.EXPORT if step == "export" else Op.OUTPUT, types[x], (x,), pass_through=True)
            if step == "output":
                output_ids.append(nid)
            continue
        op = draw(float64_ops if t is F64 else ops)
        operands = [_pick(draw, readable) for _ in range(1 if op in FLOAT_ONLY else 2)]
        if chain and nodes[-1].id in readable:
            operands[0] = nodes[-1].id
        add(op, t, operands)
    if not output_ids or draw(st.booleans()):  # an output of the last node, always when no output was drawn
        last = nodes[-1]
        if last.op is not Op.OUTPUT:
            output_ids.append(add(Op.OUTPUT, types[last.id], (last.id,), pass_through=True))
    inputs = draw(st.permutations(input_ids))  # the graph's input order need not be the file's
    outputs = draw(st.permutations(output_ids))
    return DFGraph(f"random-{kind}", gtype, nodes, list(inputs), list(outputs))


@st.composite
def jobs(draw, values=int16_values, **program_kw) -> tuple[DFGraph, list[np.ndarray]]:
    """A drawn program (`programs(values=values, **program_kw)`) with one input column per graph input.

    Each column has 1 to 4 lanes; an int16 column draws from `values`.
    """
    g = draw(programs(values=values, **program_kw))
    n = draw(st.integers(1, 4))
    cols = []
    for t in g.plan.inputs:
        col = draw(st.lists(values if t is I16 else float64_values, min_size=n, max_size=n))
        cols.append(np.array(col, dtype=np.int64 if t is I16 else np.float64))
    return g, cols
