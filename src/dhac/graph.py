"""Scalar dataflow-graph IR: node/graph types, validation, file format, census.

A program is a DAG of scalar operations. Every node carries one scalar type;
a graph declares a default type and individual nodes may override it, which
is how an integer region inside a float program is expressed. The only
cross-type edge permitted is the widening Int16 -> Float64 edge.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import ParseError, ValidationError, typed

INT16_MIN = -32768
INT16_MAX = 32767


class ScalarType(Enum):
    INT16 = "int16"
    FLOAT64 = "float64"


class Op(Enum):
    INPUT = "input"
    CONST = "const"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    TAN = "tan"
    ARCTAN = "arctan"
    OUTPUT = "output"
    EXPORT = "export"


ARITH_OPS = frozenset({Op.ADD, Op.SUB, Op.MUL, Op.DIV})
UNARY_FLOAT_OPS = frozenset({Op.TAN, Op.ARCTAN})
PASSTHROUGH_OPS = frozenset({Op.OUTPUT, Op.EXPORT})

_ARITY = {Op.INPUT: 0, Op.CONST: 0} | dict.fromkeys(ARITH_OPS, 2) | dict.fromkeys(UNARY_FLOAT_OPS | PASSTHROUGH_OPS, 1)


@dataclass(frozen=True)
class DFNode:
    """One scalar operation. `dtype` overrides the graph default when set."""

    id: str
    op: Op
    operands: tuple[str, ...] = ()
    value: int | float | None = None
    dtype: ScalarType | None = None


class Judgement(Enum):
    """A check's verdict on one job."""

    NEGATIVE = "negative"
    POSITIVE = "positive"
    INCONCLUSIVE = "inconclusive"


@dataclass
class Trace:
    """Result of one evaluation: ordered outputs plus export-tap values."""

    outputs: tuple[int | float, ...]
    exports: dict[str, int | float]


@dataclass
class DFGraph:
    """A validated program: construction raises ValidationError on a bad graph."""

    name: str
    dtype: ScalarType
    nodes: list[DFNode]
    inputs: list[str]
    outputs: list[str]
    # caches filled by validate()
    _node_map: dict[str, DFNode] = field(init=False, repr=False, compare=False)
    _topo: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _types: dict[str, ScalarType] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    def node(self, node_id: str) -> DFNode:
        return self._node_map[node_id]

    @property
    def topo_order(self) -> tuple[str, ...]:
        return self._topo

    def node_type(self, node_id: str) -> ScalarType:
        return self._types[node_id]

    def node_types(self) -> dict[str, ScalarType]:
        return self._types

    @cached_property
    def dead_after(self) -> tuple[tuple[str, ...], ...]:
        """Per topo position, the operands that no later node reads.

        Interpreters free these lanes once that node has run, so peak memory
        tracks graph width. Outputs and export taps are never listed.
        """
        last: dict[str, int] = {}
        for i, nid in enumerate(self._topo):
            for op_id in self._node_map[nid].operands:
                last[op_id] = i
        dead: list[list[str]] = [[] for _ in self._topo]
        for op_id, i in last.items():
            if self._node_map[op_id].op not in PASSTHROUGH_OPS:
                dead[i].append(op_id)
        return tuple(map(tuple, dead))

    def validate(self) -> None:
        """Check structure; fills node-map/topo/type caches. Raises ValidationError."""
        node_map: dict[str, DFNode] = {}
        for n in self.nodes:
            if not n.id or not isinstance(n.id, str):
                raise ValidationError(f"node id must be a non-empty string, got {n.id!r}")
            if n.id in node_map:
                raise ValidationError(f"duplicate node id '{n.id}'")
            node_map[n.id] = n

        for n in self.nodes:
            want = _ARITY[n.op]
            if len(n.operands) != want:
                raise ValidationError(
                    f"node '{n.id}': op {n.op.value} takes {want} operands, got {len(n.operands)}"
                )
            for op_id in n.operands:
                if op_id not in node_map:
                    raise ValidationError(f"node '{n.id}': unknown operand id '{op_id}'")
            if n.op is Op.CONST:
                if n.value is None:
                    raise ValidationError(f"const node '{n.id}' has no value")
            elif n.value is not None:
                raise ValidationError(f"node '{n.id}': only const nodes carry a value")

        input_ids = [n.id for n in self.nodes if n.op is Op.INPUT]
        output_ids = [n.id for n in self.nodes if n.op is Op.OUTPUT]
        if not input_ids:
            raise ValidationError("graph has no input nodes")
        if not output_ids:
            raise ValidationError("graph has no output nodes")
        if sorted(self.inputs) != sorted(input_ids) or len(set(self.inputs)) != len(self.inputs):
            raise ValidationError("graph 'inputs' must list every input node exactly once")
        if sorted(self.outputs) != sorted(output_ids) or len(set(self.outputs)) != len(self.outputs):
            raise ValidationError("graph 'outputs' must list every output node exactly once")

        # Kahn topological sort; leftover nodes sit on a cycle.
        indeg = {n.id: len(n.operands) for n in self.nodes}
        consumers = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for op_id in n.operands:
                consumers[op_id].append(n.id)
        # `topo` doubles as the FIFO queue, read at `head`; pop(0) would be quadratic
        topo = [n.id for n in self.nodes if indeg[n.id] == 0]
        head = 0
        while head < len(topo):
            for c in consumers[topo[head]]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    topo.append(c)
            head += 1
        if len(topo) != len(self.nodes):
            stuck = next(nid for nid, d in indeg.items() if d > 0)
            raise ValidationError(f"graph contains a cycle through node '{stuck}'")

        types: dict[str, ScalarType] = {}
        for nid in topo:
            n = node_map[nid]
            if n.op in PASSTHROUGH_OPS:
                declared = n.dtype
                t = types[n.operands[0]]
                if declared is not None and declared is not t:
                    raise ValidationError(
                        f"node '{n.id}': declared type {declared.value} but operand is {t.value}"
                    )
            else:
                t = n.dtype or self.dtype
            if n.op in UNARY_FLOAT_OPS and t is not ScalarType.FLOAT64:
                raise ValidationError(f"node '{n.id}': {n.op.value} is float64-only")
            for op_id in n.operands:
                ot = types[op_id]
                if ot is t:
                    continue
                if ot is ScalarType.INT16 and t is ScalarType.FLOAT64:
                    continue  # widening edge, the permitted type boundary
                raise ValidationError(
                    f"node '{n.id}': {t.value} node cannot consume {ot.value} operand '{op_id}'"
                )
            if n.op is Op.CONST:
                _check_const(n, t)
            types[nid] = t

        self._node_map = node_map
        self._topo = tuple(topo)
        self._types = types


def _check_const(n: DFNode, t: ScalarType) -> None:
    if t is ScalarType.INT16:
        if not isinstance(n.value, int) or isinstance(n.value, bool):
            raise ValidationError(f"const node '{n.id}': int16 const must be an integer")
        if not (INT16_MIN <= n.value <= INT16_MAX):
            raise ValidationError(f"const node '{n.id}': {n.value} outside int16 range")
    else:
        if isinstance(n.value, bool) or not isinstance(n.value, (int, float)):
            raise ValidationError(f"const node '{n.id}': float64 const must be numeric")
        if not abs(n.value) <= sys.float_info.max:  # nan, inf, or an int no float holds
            raise ValidationError(f"const node '{n.id}': non-finite float const")


def graph_of(
    name: str,
    dtype: ScalarType,
    nodes: list[DFNode],
    inputs: list[str],
    outputs: list[str],
) -> DFGraph:
    """Build a validated graph."""
    return DFGraph(name=name, dtype=dtype, nodes=nodes, inputs=inputs, outputs=outputs)


# ---------------------------------------------------------------------------
# file format


def parse_program(text: str) -> DFGraph:
    """Parse a JSON program document into a validated DFGraph.

    Malformed documents raise ParseError (with line/column for JSON syntax
    errors); structural problems raise ValidationError naming the node.
    Unknown keys are tolerated so annotated documents stay readable.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    return parse_program_dict(doc)


_OPS = {op.value: op for op in Op}  # a dict lookup costs less per node than Op(value)


def parse_program_dict(doc) -> DFGraph:
    typed(doc, dict, "program document", ParseError)
    for key in ("name", "type", "nodes", "inputs", "outputs"):
        if key not in doc:
            raise ParseError(f"program document missing '{key}'")
    try:
        gtype = ScalarType(doc["type"])
    except ValueError:
        raise ParseError(f"unknown graph type {doc['type']!r}") from None
    nodes: list[DFNode] = []
    # One pass per node, so the checks are inline and cheap: a node id that
    # is not a string is left to `validate`, as for a graph built in code.
    for i, nd in enumerate(typed(doc["nodes"], list, "program 'nodes'", ParseError)):
        if not isinstance(nd, dict) or "id" not in nd or "op" not in nd:
            raise ParseError(f"nodes[{i}] must be an object with 'id' and 'op'")
        try:
            op = _OPS[nd["op"]]
        except (KeyError, TypeError):  # an unknown or unhashable op
            raise ParseError(f"nodes[{i}] ('{nd['id']}'): unknown op {nd['op']!r}") from None
        dtype = None
        if "type" in nd:
            try:
                dtype = ScalarType(nd["type"])
            except ValueError:
                raise ParseError(f"nodes[{i}] ('{nd['id']}'): unknown type {nd['type']!r}") from None
        operands = nd.get("operands", [])
        if not isinstance(operands, list) or not all(isinstance(x, str) for x in operands):
            raise ParseError(f"nodes[{i}] ('{nd['id']}'): 'operands' must be a list of ids")
        nodes.append(DFNode(nd["id"], op, tuple(operands), nd.get("value"), dtype))
    return graph_of(
        name=typed(doc["name"], str, "program 'name'", ParseError),
        dtype=gtype,
        nodes=nodes,
        inputs=typed(doc["inputs"], list, "program 'inputs'", ParseError, of=str),
        outputs=typed(doc["outputs"], list, "program 'outputs'", ParseError, of=str),
    )


def program_to_dict(graph: DFGraph) -> dict:
    nodes = []
    for n in graph.nodes:
        nd: dict = {"id": n.id, "op": n.op.value}
        if n.operands:
            nd["operands"] = list(n.operands)
        if n.op is Op.CONST:
            nd["value"] = n.value
        if n.dtype is not None and n.dtype is not graph.dtype:
            nd["type"] = n.dtype.value
        nodes.append(nd)
    return {
        "name": graph.name,
        "type": graph.dtype.value,
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
        "nodes": nodes,
    }


def serialize_program(graph: DFGraph) -> str:
    """Inverse of parse_program; deterministic byte-stable output."""
    return json.dumps(program_to_dict(graph), indent=2) + "\n"


# ---------------------------------------------------------------------------
# census


def op_census(graph: DFGraph) -> dict[str, int]:
    """Count arithmetic nodes: {'add_sub', 'mul', 'div', 'total'}."""
    add_sub = sum(1 for n in graph.nodes if n.op in (Op.ADD, Op.SUB))
    mul = sum(1 for n in graph.nodes if n.op is Op.MUL)
    div = sum(1 for n in graph.nodes if n.op is Op.DIV)
    return {"add_sub": add_sub, "mul": mul, "div": div, "total": add_sub + mul + div}
