"""Graph IR: validation, file round trips, census, type rules."""

import json
from functools import cache

import pytest

import oracles as O
from dhac import (
    DFGraph,
    DFNode,
    Op,
    ParseError,
    ScalarType,
    ValidationError,
    SentinelKind,
    builtin_program,
    op_census,
    parse_program,
    program_to_dict,
    serialize_program,
)
from dhac.cli import main
from dhac.fbc import instrument_seeded
from dhac.graph import Plan, parse_program_dict
from dhac.programs import BUILTIN_NAMES, INTEGER_SHORTHANDS
from graphs import div_by_const_graph, float_graph, int_div_graph, mixed_graph


def n(nid, op, *operands, value=None, dtype=None):
    return DFNode(id=nid, op=op, operands=tuple(operands), value=value, dtype=dtype)


def tiny_int_graph():
    nodes = [
        n("x", Op.INPUT),
        n("y", Op.INPUT),
        n("c", Op.CONST, value=3),
        n("m", Op.MUL, "x", "c"),
        n("s", Op.ADD, "m", "y"),
        n("out", Op.OUTPUT, "s"),
    ]
    return DFGraph("tiny", ScalarType.INT16, nodes, ["x", "y"], ["out"])


class TestValidation:
    def test_valid_graph_has_caches(self):
        g = tiny_int_graph()
        assert {n.id: n for n in g.nodes}["m"].op is Op.MUL
        assert g.node_types()["m"] is ScalarType.INT16

    def test_topo_order_respects_edges(self):
        g = builtin_program("rk3")
        pos = {nid: i for i, nid in enumerate(g.plan.ids)}
        assert len(pos) == len(g.nodes)
        for node in g.nodes:
            for op_id in node.operands:
                assert pos[op_id] < pos[node.id]

    def test_duplicate_id(self):
        nodes = [n("x", Op.INPUT), n("x", Op.INPUT), n("out", Op.OUTPUT, "x")]
        with pytest.raises(ValidationError, match="duplicate node id"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_unknown_operand(self):
        nodes = [n("x", Op.INPUT), n("out", Op.OUTPUT, "ghost")]
        with pytest.raises(ValidationError, match="unknown operand"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_bad_arity(self):
        nodes = [n("x", Op.INPUT), n("a", Op.ADD, "x"), n("out", Op.OUTPUT, "a")]
        with pytest.raises(ValidationError, match="takes 2 operands"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_const_needs_value(self):
        nodes = [n("x", Op.INPUT), n("c", Op.CONST), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError, match="no value"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_only_consts_carry_values(self):
        nodes = [n("x", Op.INPUT, value=5), n("out", Op.OUTPUT, "x")]
        with pytest.raises(ValidationError, match="only const nodes"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_no_inputs_rejected(self):
        nodes = [n("c", Op.CONST, value=1), n("out", Op.OUTPUT, "c")]
        with pytest.raises(ValidationError, match="no input nodes"):
            DFGraph("g", ScalarType.INT16, nodes, [], ["out"])

    def test_no_outputs_rejected(self):
        nodes = [n("x", Op.INPUT)]
        with pytest.raises(ValidationError, match="no output nodes"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], [])

    def test_inputs_list_must_match_input_nodes(self):
        nodes = [n("x", Op.INPUT), n("y", Op.INPUT), n("s", Op.ADD, "x", "y"), n("out", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError, match="'inputs'"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_cycle_detected(self):
        nodes = [
            n("x", Op.INPUT),
            n("a", Op.ADD, "x", "b"),
            n("b", Op.ADD, "a", "x"),
            n("out", Op.OUTPUT, "b"),
        ]
        with pytest.raises(ValidationError, match="^node 'a': operand 'b' must come before it in the file$"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_tan_is_float_only(self):
        nodes = [n("x", Op.INPUT), n("t", Op.TAN, "x"), n("out", Op.OUTPUT, "t")]
        with pytest.raises(ValidationError, match="float64-only"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_widening_edge_allowed(self):
        nodes = [
            n("x", Op.INPUT, dtype=ScalarType.INT16),
            n("w", Op.CONST, value=0.5),
            n("m", Op.MUL, "x", "w"),
            n("out", Op.OUTPUT, "m"),
        ]
        g = DFGraph("g", ScalarType.FLOAT64, nodes, ["x"], ["out"])
        assert g.node_types()["x"] is ScalarType.INT16
        assert g.node_types()["m"] is ScalarType.FLOAT64

    def test_narrowing_edge_rejected(self):
        nodes = [
            n("x", Op.INPUT),
            n("w", Op.CONST, value=0.5, dtype=ScalarType.FLOAT64),
            n("m", Op.MUL, "x", "w", dtype=ScalarType.INT16),
            n("out", Op.OUTPUT, "m"),
        ]
        with pytest.raises(ValidationError, match="cannot consume"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_passthrough_type_declaration_checked(self):
        nodes = [
            n("x", Op.INPUT),
            n("out", Op.OUTPUT, "x", dtype=ScalarType.FLOAT64),
        ]
        with pytest.raises(ValidationError, match="declared type"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_int_const_range(self):
        for bad in (40000, -40000):
            nodes = [n("x", Op.INPUT), n("c", Op.CONST, value=bad), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
            with pytest.raises(ValidationError, match="outside int16"):
                DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_int_const_must_be_integer(self):
        nodes = [n("x", Op.INPUT), n("c", Op.CONST, value=1.5), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError, match="must be an integer"):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_bool_const_rejected(self):
        nodes = [n("x", Op.INPUT), n("c", Op.CONST, value=True), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError):
            DFGraph("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_nonfinite_float_const_rejected(self):
        for bad in (float("nan"), float("inf"), 10**400):  # JSON may spell an int no float holds
            nodes = [n("x", Op.INPUT), n("c", Op.CONST, value=bad), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
            with pytest.raises(ValidationError, match="non-finite"):
                DFGraph("g", ScalarType.FLOAT64, nodes, ["x"], ["out"])


class TestFileFormat:
    @pytest.mark.parametrize("name", ["fir", "conv2x2", "euler2", "euler3", "rk2", "rk3", "conv_layer"])
    def test_round_trip(self, name):
        g = builtin_program(name)
        text = serialize_program(g)
        g2 = parse_program(text)
        assert program_to_dict(g2) == program_to_dict(g)
        assert serialize_program(g2) == text

    def test_serialize_is_byte_stable(self):
        a = serialize_program(builtin_program("fir"))
        b = serialize_program(builtin_program("fir"))
        assert a == b

    def test_type_overrides_survive_round_trip(self):
        nodes = [
            n("x", Op.INPUT, dtype=ScalarType.INT16),
            n("w", Op.CONST, value=0.25),
            n("m", Op.MUL, "x", "w"),
            n("out", Op.OUTPUT, "m"),
        ]
        g = DFGraph("mix", ScalarType.FLOAT64, nodes, ["x"], ["out"])
        g2 = parse_program(serialize_program(g))
        assert g2.node_types()["x"] is ScalarType.INT16
        assert g2.node_types()["m"] is ScalarType.FLOAT64

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_program("{not json")

    def test_non_object_document(self):
        with pytest.raises(ParseError, match=r"^program document must be an object, got \[1, 2\]$"):
            parse_program("[1, 2]")

    def test_missing_key(self):
        doc = {"name": "g", "type": "int16", "nodes": [], "inputs": []}
        with pytest.raises(ParseError, match="missing 'outputs'"):
            parse_program(json.dumps(doc))

    def test_unknown_graph_type(self):
        doc = {"name": "g", "type": "int32", "nodes": [], "inputs": [], "outputs": []}
        with pytest.raises(ParseError, match="unknown graph type"):
            parse_program(json.dumps(doc))

    def test_unknown_op(self):
        doc = {
            "name": "g",
            "type": "int16",
            "nodes": [{"id": "x", "op": "xor"}],
            "inputs": ["x"],
            "outputs": [],
        }
        with pytest.raises(ParseError, match="unknown op"):
            parse_program(json.dumps(doc))

    def test_operands_must_be_id_list(self):
        doc = {
            "name": "g",
            "type": "int16",
            "nodes": [{"id": "x", "op": "input"}, {"id": "o", "op": "output", "operands": [3]}],
            "inputs": ["x"],
            "outputs": ["o"],
        }
        with pytest.raises(ParseError, match="list of ids"):
            parse_program(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value, msg",
        [
            ("name", ["x"], "program 'name' must be a string, got ['x']"),
            ("nodes", {"x": 1}, "program 'nodes' must be a list, got {'x': 1}"),
            ("inputs", ["x", 7], "program 'inputs' must be a string, got 7"),
            ("outputs", "o", "program 'outputs' must be a list of strings, got 'o'"),
        ],
    )
    def test_document_fields_are_typed(self, key, value, msg):
        doc = json.loads(serialize_program(tiny_int_graph()))
        doc[key] = value
        with pytest.raises(ParseError) as e:
            parse_program_dict(doc)
        assert str(e.value) == msg

    def test_node_id_must_be_a_string(self):
        doc = json.loads(serialize_program(tiny_int_graph()))
        doc["nodes"][0]["id"] = 7
        with pytest.raises(ValidationError, match="^node id must be a non-empty string, got 7$"):
            parse_program_dict(doc)

    def test_unknown_keys_tolerated(self):
        doc = json.loads(serialize_program(tiny_int_graph()))
        doc["comment"] = "annotated"
        doc["nodes"][0]["note"] = "first input"
        g = parse_program(json.dumps(doc))
        assert g.name == "tiny"


class TestCensus:
    def test_fir_census(self):
        c = op_census(builtin_program("fir"))
        assert c == {"add_sub": 10, "mul": 11, "div": 0, "total": 21}

    def test_conv2x2_census(self):
        c = op_census(builtin_program("conv2x2"))
        assert c == {"add_sub": 3, "mul": 4, "div": 0, "total": 7}

    def test_div_and_sub_counted(self):
        nodes = [
            n("x", Op.INPUT),
            n("y", Op.INPUT),
            n("d", Op.SUB, "x", "y"),
            n("q", Op.DIV, "d", "y"),
            n("out", Op.OUTPUT, "q"),
        ]
        g = DFGraph("g", ScalarType.INT16, nodes, ["x", "y"], ["out"])
        assert op_census(g) == {"add_sub": 1, "mul": 0, "div": 1, "total": 2}


# ---------------------------------------------------------------------------
# the plan follows the file, and that order is part of the output: it orders
# export keys and auto_sites, and decides which node an error names


GRAPHS = [*INTEGER_SHORTHANDS, "conv_layer", "conv_layer-small", "conv_layer+fbc", "conv_layer-small+fbc"]
# builtins at the edges of their parameters, by label
PARAMETER_EDGES = {
    "conv_layer-small": ("conv_layer", {"channels": 2, "size": 6}),
    "fir-taps2": ("fir_filter", {"taps": 2}),
    "fir-taps65": ("fir_filter", {"taps": 65}),
    **{
        f"{name}{order}-steps{steps}": (name, {"order": order, "steps": steps})
        for name, order in (("euler", 2), ("euler", 3), ("runge_kutta", 2), ("runge_kutta", 3))
        for steps in (2, 10)
    },
}


@cache
def named_graph(label: str):
    """A builtin by name or PARAMETER_EDGES label; a '+fbc' suffix gives its `fbc-instrument` form."""
    name, _, fbc = label.partition("+")
    name, params = PARAMETER_EDGES.get(name, (name, {}))
    g = builtin_program(name, **params)
    if fbc:
        kinds = [SentinelKind(k) for k in ("add", "mul", "tan")]
        g = instrument_seeded(g, kinds, None, 0, g.name, n=3, delta=1e-13).graph
    return g


class TestCensusReadsThePlan:
    @pytest.mark.parametrize("label", [*sorted(BUILTIN_NAMES), "conv_layer+fbc", "conv_layer-small+fbc"])
    def test_matches_node_scan(self, label):
        g = named_graph(label)
        assert op_census(g) == O.census(g)

    def test_widening_ops_count(self):
        g = mixed_graph()
        assert op_census(g) == O.census(g) == {"add_sub": 3, "mul": 3, "div": 0, "total": 6}

    def test_tan_and_arctan_do_not_count(self):
        g = float_graph()
        assert op_census(g) == O.census(g) == {"add_sub": 2, "mul": 1, "div": 1, "total": 4}


class TestTopologicalOrder:
    @pytest.mark.parametrize("label", [*GRAPHS, *sorted(BUILTIN_NAMES - {*GRAPHS}), *sorted(PARAMETER_EDGES.keys() - {*GRAPHS})])
    def test_plan_ids_are_file_order(self, label):
        g = named_graph(label)
        g2 = parse_program(serialize_program(g))
        assert g.plan.ids == tuple(m.id for m in g.nodes) == g2.plan.ids == tuple(m.id for m in g2.nodes)

    @pytest.mark.parametrize("label", GRAPHS)
    def test_node_types_iterate_in_topo_order(self, label):
        g = named_graph(label)
        assert list(g.node_types()) == list(g.plan.ids)

    def test_kahn_order_is_not_file_order(self):
        # Kahn's first-in first-out order would run t1 before t2, as x's consumers are visited in file
        # order; the plan keeps the file's order
        nodes = [
            n("x", Op.INPUT),
            n("s", Op.ADD, "x", "x"),
            n("t2", Op.MUL, "s", "x"),
            n("t1", Op.MUL, "x", "x"),
            n("o2", Op.OUTPUT, "t2"),
            n("o1", Op.OUTPUT, "t1"),
        ]
        g = DFGraph("g", ScalarType.INT16, nodes, ["x"], ["o1", "o2"])
        assert list(g.plan.ids) == ["x", "s", "t2", "t1", "o2", "o1"]

    def test_run_export_keys_follow_topo_order(self, tmp_path, capsys):
        prog = tmp_path / "conv.json"
        prog.write_text(serialize_program(named_graph("conv_layer-small")))
        ins, trace = tmp_path / "ins.json", tmp_path / "trace.json"
        assert main(["fbc-instrument", "--program", str(prog), "--out", str(ins)]) == 0
        graph = parse_program_dict(json.loads(ins.read_text())["graph"])
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps([0.25] * len(graph.inputs)))
        assert main(["run", "--program", str(ins), "--inputs", str(inputs), "--out", str(trace)]) == 0
        exports = [m.id for m in graph.nodes if m.op is Op.EXPORT]
        assert len(exports) == 6
        assert list(json.loads(trace.read_text())["exports"]) == exports


def _faulty(*nodes, dtype=ScalarType.INT16, inputs=("x",), outputs=("out",)):
    return lambda: DFGraph("g", dtype, list(nodes), list(inputs), list(outputs))


class TestValidationPrecedence:
    """Each fault's message, and which fault of several is reported."""

    @pytest.mark.parametrize(
        "make, msg",
        [
            # node by node in file order, the first faulty node is reported: its id, then op, arity, value,
            # type and operands
            (_faulty(n("x", Op.INPUT), n("x", Op.INPUT), n("a", Op.ADD, "x")), "duplicate node id 'x'"),
            (_faulty(n("x", Op.INPUT), n("b", Op.ADD, "x"), n("x", Op.INPUT)), "node 'b': op add takes 2 operands, got 1"),
            (_faulty(n("x", Op.INPUT), n("", Op.INPUT)), "node id must be a non-empty string, got ''"),
            (
                _faulty(n("x", Op.INPUT), n("a", Op.ADD, "x", "ghost"), n("b", Op.ADD, "x")),
                "node 'a': unknown operand id 'ghost'",
            ),
            (_faulty(n("x", Op.INPUT), n("a", Op.ADD, "ghost")), "node 'a': op add takes 2 operands, got 1"),
            (_faulty(n("x", Op.INPUT), n("c", Op.CONST)), "const node 'c' has no value"),
            (_faulty(n("x", Op.INPUT, value=1), n("c", Op.CONST)), "node 'x': only const nodes carry a value"),
            # then the graph's inputs and outputs, once every node is checked
            (_faulty(n("x", Op.INPUT), n("out", Op.OUTPUT, "x"), inputs=["x", "x"]), "graph 'inputs' must list every input node exactly once"),
            (_faulty(n("x", Op.INPUT), n("out", Op.OUTPUT, "x"), outputs=["x"]), "graph 'outputs' must list every output node exactly once"),
            (_faulty(n("x", Op.INPUT), n("t", Op.TAN, "x"), n("out", Op.OUTPUT, "t"), inputs=["x", "x"]), "node 't': tan is float64-only"),
            # an operand must come before its reader: every cycle has a forward or self reference
            (
                _faulty(n("x", Op.INPUT), n("b", Op.ADD, "x", "a"), n("a", Op.ADD, "b", "x"), n("out", Op.OUTPUT, "a")),
                "node 'b': operand 'a' must come before it in the file",
            ),
            (_faulty(n("x", Op.INPUT), n("a", Op.ADD, "x", "a"), n("out", Op.OUTPUT, "a")), "node 'a': operand 'a' must come before it in the file"),
            # types and consts, in file order: Kahn's order would reach t2 first
            (
                _faulty(
                    n("x", Op.INPUT),
                    n("s", Op.ADD, "x", "x"),
                    n("t1", Op.TAN, "s"),
                    n("t2", Op.TAN, "x"),
                    n("out", Op.OUTPUT, "t2"),
                    n("o2", Op.OUTPUT, "t1"),
                    outputs=["out", "o2"],
                ),
                "node 't1': tan is float64-only",
            ),
            (
                _faulty(
                    n("x", Op.INPUT),
                    n("s", Op.ADD, "x", "x"),
                    n("c2", Op.CONST, value=1.5),
                    n("a", Op.ADD, "s", "c2"),
                    n("c1", Op.CONST, value=40000),
                    n("b", Op.ADD, "x", "c1"),
                    n("out", Op.OUTPUT, "a"),
                    n("o2", Op.OUTPUT, "b"),
                    outputs=["out", "o2"],
                ),
                "const node 'c2': int16 const must be an integer",
            ),
            (
                _faulty(
                    n("x", Op.INPUT, dtype=ScalarType.FLOAT64),
                    n("y", Op.INPUT),
                    n("m", Op.MUL, "y", "x"),
                    n("out", Op.OUTPUT, "m"),
                    inputs=["x", "y"],
                ),
                "node 'm': int16 node cannot consume float64 operand 'x'",
            ),
            (
                _faulty(n("x", Op.INPUT), n("out", Op.EXPORT, "x", dtype=ScalarType.FLOAT64), n("o", Op.OUTPUT, "x"), outputs=["o"]),
                "node 'out': declared type float64 but operand is int16",
            ),
            # the graph's type is checked first, once per graph
            (_faulty(n("x", Op.INPUT), n("x", Op.INPUT), dtype="float64"), "graph type must be a ScalarType, got 'float64'"),
            (_faulty(n("x", Op.INPUT), n("out", Op.OUTPUT, "x"), dtype=None), "graph type must be a ScalarType, got None"),
            # a node's op and operands are checked where they are looked up, in file order
            (_faulty(n("x", "input"), n("a", Op.ADD, "x")), "node 'x': op must be an Op, got 'input'"),
            (
                _faulty(n("x", Op.INPUT), DFNode(id="out", op=Op.OUTPUT, operands="x"), n("a", Op.ADD, "x")),
                "node 'out': operands must be a tuple of ids, got 'x'",
            ),
            (_faulty(n("x", Op.INPUT), n("out", Op.OUTPUT, ["x"])), "node 'out': operands must be node ids, got (['x'],)"),
            # an entry of 'inputs' or 'outputs' that cannot be a node id
            (_faulty(n("x", Op.INPUT), n("out", Op.OUTPUT, "x"), inputs=["x", 1]), "graph 'inputs' must be a list of node ids"),
            (_faulty(n("x", Op.INPUT), n("out", Op.OUTPUT, "x"), outputs=["out", 2]), "graph 'outputs' must be a list of node ids"),
            # a node's own type, when set, in file order
            (
                _faulty(n("x", Op.INPUT), n("out", Op.OUTPUT, "x", dtype="float64")),
                "node 'out': type must be a ScalarType, got 'float64'",
            ),
        ],
    )
    def test_message_and_precedence(self, make, msg):
        with pytest.raises(ValidationError) as e:
            make()
        assert str(e.value) == msg

    @pytest.mark.parametrize(
        "inputs, outputs, key",
        [("yx", ["p", "o"], "inputs"), (["y", "x"], "po", "outputs"), ({"y": 0, "x": 1}, ["p", "o"], "inputs"), (["y", "x"], {"p", "o"}, "outputs")],
    )
    def test_inputs_and_outputs_must_be_lists(self, inputs, outputs, key):
        # a string, a dict or a set would list its node ids, but not as a list of them
        nodes = [n("y", Op.INPUT), n("x", Op.INPUT), n("s", Op.ADD, "y", "x"), n("p", Op.OUTPUT, "s"), n("o", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError) as e:
            DFGraph("g", ScalarType.INT16, nodes, inputs, outputs)
        assert str(e.value) == f"graph '{key}' must be a list of node ids"


# ---------------------------------------------------------------------------
# the front end: nodes, parsing and the plan it compiles

FIXTURES = {"intdiv": int_div_graph, "floaty": float_graph, "mixed": mixed_graph, "divconst": lambda: div_by_const_graph(3)}


class TestFrontEndRoundTrip:
    @pytest.mark.parametrize("label", [*sorted(BUILTIN_NAMES), "conv_layer+fbc", "conv_layer-small+fbc", *FIXTURES])
    def test_parse_gives_the_same_nodes_and_plan(self, label):
        g = FIXTURES[label]() if label in FIXTURES else named_graph(label)
        g2 = parse_program_dict(program_to_dict(g))
        # the file leaves out a node type equal to the graph's
        want = [DFNode(m.id, m.op, m.operands, m.value, None if m.dtype is g.dtype else m.dtype) for m in g.nodes]
        assert g2.nodes == want
        assert all(type(m.operands) is tuple for m in g2.nodes)
        for field in Plan._fields:
            assert getattr(g2.plan, field) == getattr(g.plan, field), field
        assert [type(c) for c in g2.plan.consts] == [type(c) for c in g.plan.consts]

    def test_operands_are_tuples(self):
        doc = {
            "name": "g",
            "type": "int16",
            "nodes": [
                {"id": "x", "op": "input"},
                {"id": "y", "op": "input", "operands": []},
                {"id": "s", "op": "add", "operands": ["x", "y"]},
                {"id": "out", "op": "output", "operands": ["s"]},
            ],
            "inputs": ["x", "y"],
            "outputs": ["out"],
        }
        g = parse_program_dict(doc)
        assert [m.operands for m in g.nodes] == [(), (), ("x", "y"), ("s",)]
        assert all(type(m.operands) is tuple for m in g.nodes)

    @pytest.mark.parametrize(
        "later, msg",
        [
            ({"id": "z", "op": "xor"}, "nodes[6] ('z'): unknown op 'xor'"),
            ({"id": "z", "op": "input", "type": "int8"}, "nodes[6] ('z'): unknown type 'int8'"),
            ({"id": "z", "op": "output", "operands": [3]}, "nodes[6] ('z'): 'operands' must be a list of ids"),
            ({"id": "z", "op": "output", "operands": "s"}, "nodes[6] ('z'): 'operands' must be a list of ids"),
            ({"id": "z", "op": "output", "operands": None}, "nodes[6] ('z'): 'operands' must be a list of ids"),
            (["z"], "nodes[6] must be an object with 'id' and 'op'"),
        ],
    )
    def test_parse_error_beats_an_earlier_validation_error(self, later, msg):
        doc = json.loads(serialize_program(tiny_int_graph()))
        doc["nodes"][3]["operands"] = ["x", "ghost"]  # a ValidationError at node 3
        doc["nodes"].append(later)
        with pytest.raises(ParseError) as e:
            parse_program_dict(doc)
        assert str(e.value) == msg

    def test_first_parse_error_in_file_order(self):
        doc = json.loads(serialize_program(tiny_int_graph()))
        doc["nodes"][3]["operands"] = ["x", 3]
        doc["nodes"][4]["op"] = "xor"
        with pytest.raises(ParseError, match=r"^nodes\[3\] \('m'\): 'operands' must be a list of ids$"):
            parse_program_dict(doc)


class TestNodeContract:
    def test_keyword_construction_and_defaults(self):
        node = DFNode(id="x", op=Op.INPUT)
        assert (node.id, node.op, node.operands, node.value, node.dtype) == ("x", Op.INPUT, (), None, None)
        assert DFNode("c", Op.CONST, (), 2, ScalarType.INT16) == DFNode(id="c", op=Op.CONST, value=2, dtype=ScalarType.INT16)

    def test_repr(self):
        node = DFNode(id="a", op=Op.ADD, operands=("x", "y"))
        assert repr(node) == "DFNode(id='a', op=<Op.ADD: 'add'>, operands=('x', 'y'), value=None, dtype=None)"

    def test_hash_follows_equality(self):
        a, b = DFNode(id="a", op=Op.ADD, operands=("x", "y")), DFNode("a", Op.ADD, ("x", "y"))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != DFNode("a", Op.SUB, ("x", "y"))

    @pytest.mark.parametrize("field", ["id", "op", "operands", "value", "dtype"])
    def test_fields_cannot_be_assigned(self, field):
        node = DFNode(id="x", op=Op.INPUT)
        with pytest.raises(AttributeError):
            setattr(node, field, None)
