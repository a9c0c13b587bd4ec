"""Scalar dataflow-graph IR: node/graph types, validation, file format, census.

A program is a DAG of scalar operations, listed so that each node comes
after its operands. Every node carries one scalar type; a graph declares a
default type and individual nodes may override it, which is how an integer
region inside a float program is expressed. The only cross-type edge
permitted is the widening Int16 -> Float64 edge.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import ParseError, ValidationError, typed

INT16_MIN = -32768
INT16_MAX = 32767


class ScalarType(Enum):
    INT16 = "int16"
    FLOAT64 = "float64"


class Op(Enum):  # in plan order: a member's place is its op number
    INPUT = "input"
    CONST = "const"
    OUTPUT = "output"
    EXPORT = "export"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    TAN = "tan"
    ARCTAN = "arctan"


# Each op's number, keyed by its value string: hashing an Enum member runs
# Python code, too slow per node.
_OP_NUMBER = {op.value: i for i, op in enumerate(Op)}
_ARITY = (0, 0, 1, 1, 2, 2, 2, 2, 1, 1)

# Plan opcodes, one per (op, type): twice the op's number, plus 1 for
# float64, plus WIDEN where an int16 operand widens to float64.
(INPUT16, INPUT64, CONST16, CONST64, OUTPUT16, OUTPUT64, EXPORT16, EXPORT64,
 ADD16, ADD64, SUB16, SUB64, MUL16, MUL64, DIV16, DIV64, _TAN16, TAN64, _ARCTAN16, ARCTAN64) = range(20)
WIDEN = 20
_TYPES = (ScalarType.INT16, ScalarType.FLOAT64)  # by an opcode's low bit


class DFNode(NamedTuple):
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


class Plan(NamedTuple):
    """A validated graph compiled for `interp._walk`: step p computes the value at position p.

    A node's position is its index in `nodes`. A step's operands `a` and `b` are positions
    (`b` is `a` for one operand); an input step's `a` is its slot in `inputs`, a const's in `consts`.
    """

    ids: tuple[str, ...]  # node id per position: the file order
    codes: bytearray  # opcode per position
    a: array
    b: array
    last: array  # per position, the last step that reads it; -1 for none and for outputs
    consts: list  # const values, already of their node's type
    inputs: tuple[ScalarType, ...]  # the type of each graph input, in `inputs` order
    outputs: array  # the positions of the graph outputs, in `outputs` order


@dataclass
class DFGraph:
    """A validated program: construction raises ValidationError on a bad graph."""

    name: str
    dtype: ScalarType
    nodes: list[DFNode]
    inputs: list[str]
    outputs: list[str]
    # filled by validate()
    plan: Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    def node_types(self) -> dict[str, ScalarType]:
        """Each node's type, in file order."""
        return {nid: _TYPES[code & 1] for nid, code in zip(self.plan.ids, self.plan.codes)}

    def validate(self) -> None:
        """Check structure and compile the plan; raises ValidationError.

        A node's plan position is its place in the file, so each node must come after its operands. Checks the
        graph type; then, node by node in file order, the id, op, arity, value, type and operands, in the pass
        that emits the node's plan step, so the first faulty node is the one reported; then the graph's inputs
        and outputs.
        """
        nodes, gtype = self.nodes, self.dtype
        int16, float64 = _TYPES
        if gtype is not int16 and gtype is not float64:
            raise ValidationError(f"graph type must be a ScalarType, got {gtype!r}")
        index: dict[str, int] = {}  # the position of each node before the one being checked
        # per position (the node's index in the file): type, opcode and operand positions
        types, codes, pa, pb, last = [], [], [], [], [-1] * len(nodes)
        consts: list = []
        input_ids, output_ids = [], []
        for p, (nid, op, operands, value, dtype) in enumerate(nodes):
            if not nid or not isinstance(nid, str):
                raise ValidationError(f"node id must be a non-empty string, got {nid!r}")
            if nid in index:
                raise ValidationError(f"duplicate node id '{nid}'")
            try:
                num = _OP_NUMBER[op._value_]
            except (AttributeError, KeyError):
                raise ValidationError(f"node '{nid}': op must be an Op, got {op!r}") from None
            if type(operands) is not tuple:
                raise ValidationError(f"node '{nid}': operands must be a tuple of ids, got {operands!r}")
            if len(operands) != _ARITY[num]:
                raise ValidationError(f"node '{nid}': op {op.value} takes {_ARITY[num]} operands, got {len(operands)}")
            if num == 1:  # const
                if value is None:
                    raise ValidationError(f"const node '{nid}' has no value")
            elif value is not None:
                raise ValidationError(f"node '{nid}': only const nodes carry a value")
            t = gtype if dtype is None else dtype
            if t is not int16 and t is not float64:
                raise ValidationError(f"node '{nid}': type must be a ScalarType, got {dtype!r}")
            widen = 0
            if num >= 2:
                try:
                    a, b = index[operands[0]], index[operands[-1]]
                except KeyError as e:  # a forward or self reference (every cycle has one), or an unknown id
                    ref = e.args[0]
                    if any(m.id == ref for m in nodes[p:]):
                        raise ValidationError(f"node '{nid}': operand '{ref}' must come before it in the file") from None
                    raise ValidationError(f"node '{nid}': unknown operand id '{ref}'") from None
                except TypeError:  # an unhashable operand
                    raise ValidationError(f"node '{nid}': operands must be node ids, got {operands!r}") from None
                last[a] = last[b] = p
                ta = types[a]
                if num <= 3:  # output or export: the operand's value and type
                    if dtype is not None and dtype is not ta:
                        raise ValidationError(f"node '{nid}': declared type {t.value} but operand is {ta.value}")
                    t = ta
                    if num == 2:
                        output_ids.append(nid)
                elif num >= 8 and t is not float64:
                    raise ValidationError(f"node '{nid}': {op.value} is float64-only")
                elif ta is not t or types[b] is not t:  # an operand of the other type
                    if t is int16:
                        bad = operands[0] if ta is float64 else operands[1]
                        raise ValidationError(f"node '{nid}': int16 node cannot consume float64 operand '{bad}'")
                    widen = WIDEN  # the permitted type boundary
            elif num:
                _check_const(nodes[p], t)
                a = b = len(consts)
                consts.append(float(value) if t is float64 else value)
            else:
                a = b = 0  # its slot in `inputs`, set once `inputs` is checked
                input_ids.append(nid)
            types.append(t)
            codes.append(2 * num + (t is float64) + widen)
            pa.append(a)
            pb.append(b)
            index[nid] = p

        if not input_ids:
            raise ValidationError("graph has no input nodes")
        if not output_ids:
            raise ValidationError("graph has no output nodes")
        for key, listed, found in (("inputs", self.inputs, input_ids), ("outputs", self.outputs, output_ids)):
            try:
                if type(listed) not in (list, tuple):  # a string would list its characters
                    raise TypeError
                if sorted(listed) == sorted(found) and len(set(listed)) == len(listed):
                    continue
            except TypeError:  # not a list, or an entry that cannot be a node id
                raise ValidationError(f"graph '{key}' must be a list of node ids") from None
            raise ValidationError(f"graph '{key}' must list every {key[:-1]} node exactly once")

        inputs = [index[nid] for nid in self.inputs]
        for k, p in enumerate(inputs):
            pa[p] = pb[p] = k
        outputs = array("i", [index[o] for o in self.outputs])
        for p in outputs:
            last[p] = -1  # read after the walk
        pa, pb, last = (array("i", v) for v in (pa, pb, last))
        input_types = tuple(types[p] for p in inputs)
        self.plan = Plan(tuple(index), bytearray(codes), pa, pb, last, consts, input_types, outputs)


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


# ---------------------------------------------------------------------------
# file format


def json_document(text: str, source: str):
    """The JSON value in `text`, or ParseError naming `source` (its file), with the line and column of a syntax error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{source}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError(f"{source}: invalid JSON: nested too deeply") from None
    except ValueError:  # the only other one: an integer longer than int() reads
        raise ParseError(f"{source}: invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from None


def parse_program(text: str) -> DFGraph:
    """Parse a JSON program document into a validated DFGraph.

    Malformed documents raise ParseError (with line/column for JSON syntax
    errors); structural problems raise ValidationError naming the node.
    Unknown keys are tolerated so annotated documents stay readable.
    """
    return parse_program_dict(json_document(text, "program"))


_new_node = tuple.__new__  # builds a DFNode as DFNode(...) does, without its Python-level __new__
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
        try:
            "".join(operands)  # a TypeError unless it holds only strings
        except TypeError:
            operands = None
        if not isinstance(operands, list):
            raise ParseError(f"nodes[{i}] ('{nd['id']}'): 'operands' must be a list of ids")
        nodes.append(_new_node(DFNode, (nd["id"], op, tuple(operands), nd.get("value"), dtype)))
    return DFGraph(
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
    """Count arithmetic nodes: {'add_sub', 'mul', 'div', 'total'}; tan and arctan are not counted."""
    nums = [code % WIDEN >> 1 for code in graph.plan.codes]
    add_sub = nums.count(ADD16 >> 1) + nums.count(SUB16 >> 1)
    mul, div = nums.count(MUL16 >> 1), nums.count(DIV16 >> 1)
    return {"add_sub": add_sub, "mul": mul, "div": div, "total": add_sub + mul + div}
