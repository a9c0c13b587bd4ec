"""Graph IR: validation, file round trips, census, type rules."""

import json

import pytest

from dhac import (
    DFGraph,
    DFNode,
    Op,
    ParseError,
    ScalarType,
    ValidationError,
    builtin_program,
    graph_of,
    op_census,
    parse_program,
    program_to_dict,
    serialize_program,
)
from dhac.graph import parse_program_dict


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
    return graph_of("tiny", ScalarType.INT16, nodes, ["x", "y"], ["out"])


class TestValidation:
    def test_valid_graph_has_caches(self):
        g = tiny_int_graph()
        assert g.node("m").op is Op.MUL
        assert [g.node(n.id) for n in g.nodes] == g.nodes
        assert g.node_type("m") is ScalarType.INT16

    def test_topo_order_respects_edges(self):
        g = builtin_program("rk3")
        pos = {nid: i for i, nid in enumerate(g.topo_order)}
        assert len(pos) == len(g.nodes)
        for node in g.nodes:
            for op_id in node.operands:
                assert pos[op_id] < pos[node.id]

    def test_duplicate_id(self):
        nodes = [n("x", Op.INPUT), n("x", Op.INPUT), n("out", Op.OUTPUT, "x")]
        with pytest.raises(ValidationError, match="duplicate node id"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_unknown_operand(self):
        nodes = [n("x", Op.INPUT), n("out", Op.OUTPUT, "ghost")]
        with pytest.raises(ValidationError, match="unknown operand"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_bad_arity(self):
        nodes = [n("x", Op.INPUT), n("a", Op.ADD, "x"), n("out", Op.OUTPUT, "a")]
        with pytest.raises(ValidationError, match="takes 2 operands"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_const_needs_value(self):
        nodes = [n("x", Op.INPUT), n("c", Op.CONST), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError, match="no value"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_only_consts_carry_values(self):
        nodes = [n("x", Op.INPUT, value=5), n("out", Op.OUTPUT, "x")]
        with pytest.raises(ValidationError, match="only const nodes"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_no_inputs_rejected(self):
        nodes = [n("c", Op.CONST, value=1), n("out", Op.OUTPUT, "c")]
        with pytest.raises(ValidationError, match="no input nodes"):
            graph_of("g", ScalarType.INT16, nodes, [], ["out"])

    def test_no_outputs_rejected(self):
        nodes = [n("x", Op.INPUT)]
        with pytest.raises(ValidationError, match="no output nodes"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], [])

    def test_inputs_list_must_match_input_nodes(self):
        nodes = [n("x", Op.INPUT), n("y", Op.INPUT), n("s", Op.ADD, "x", "y"), n("out", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError, match="'inputs'"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_cycle_detected(self):
        nodes = [
            n("x", Op.INPUT),
            n("a", Op.ADD, "x", "b"),
            n("b", Op.ADD, "a", "x"),
            n("out", Op.OUTPUT, "b"),
        ]
        with pytest.raises(ValidationError, match="cycle"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_tan_is_float_only(self):
        nodes = [n("x", Op.INPUT), n("t", Op.TAN, "x"), n("out", Op.OUTPUT, "t")]
        with pytest.raises(ValidationError, match="float64-only"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_widening_edge_allowed(self):
        nodes = [
            n("x", Op.INPUT, dtype=ScalarType.INT16),
            n("w", Op.CONST, value=0.5),
            n("m", Op.MUL, "x", "w"),
            n("out", Op.OUTPUT, "m"),
        ]
        g = graph_of("g", ScalarType.FLOAT64, nodes, ["x"], ["out"])
        assert g.node_type("x") is ScalarType.INT16
        assert g.node_type("m") is ScalarType.FLOAT64

    def test_narrowing_edge_rejected(self):
        nodes = [
            n("x", Op.INPUT),
            n("w", Op.CONST, value=0.5, dtype=ScalarType.FLOAT64),
            n("m", Op.MUL, "x", "w", dtype=ScalarType.INT16),
            n("out", Op.OUTPUT, "m"),
        ]
        with pytest.raises(ValidationError, match="cannot consume"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_passthrough_type_declaration_checked(self):
        nodes = [
            n("x", Op.INPUT),
            n("out", Op.OUTPUT, "x", dtype=ScalarType.FLOAT64),
        ]
        with pytest.raises(ValidationError, match="declared type"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_int_const_range(self):
        for bad in (40000, -40000):
            nodes = [n("x", Op.INPUT), n("c", Op.CONST, value=bad), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
            with pytest.raises(ValidationError, match="outside int16"):
                graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_int_const_must_be_integer(self):
        nodes = [n("x", Op.INPUT), n("c", Op.CONST, value=1.5), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError, match="must be an integer"):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_bool_const_rejected(self):
        nodes = [n("x", Op.INPUT), n("c", Op.CONST, value=True), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
        with pytest.raises(ValidationError):
            graph_of("g", ScalarType.INT16, nodes, ["x"], ["out"])

    def test_nonfinite_float_const_rejected(self):
        for bad in (float("nan"), float("inf"), 10**400):  # JSON may spell an int no float holds
            nodes = [n("x", Op.INPUT), n("c", Op.CONST, value=bad), n("s", Op.ADD, "x", "c"), n("out", Op.OUTPUT, "s")]
            with pytest.raises(ValidationError, match="non-finite"):
                graph_of("g", ScalarType.FLOAT64, nodes, ["x"], ["out"])


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
        g = graph_of("mix", ScalarType.FLOAT64, nodes, ["x"], ["out"])
        g2 = parse_program(serialize_program(g))
        assert g2.node_type("x") is ScalarType.INT16
        assert g2.node_type("m") is ScalarType.FLOAT64

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
        g = graph_of("g", ScalarType.INT16, nodes, ["x", "y"], ["out"])
        assert op_census(g) == {"add_sub": 1, "mul": 0, "div": 1, "total": 2}
