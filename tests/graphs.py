"""Hand-built fixture graphs shared across test modules."""

from dhac import DFGraph, DFNode, Op, ScalarType


def _n(nid, op, *operands, value=None, dtype=None):
    return DFNode(id=nid, op=op, operands=tuple(operands), value=value, dtype=dtype)


def int_div_graph():
    """q = (x * y) / y; exact whenever |x * y| stays in int16 and y != 0."""
    nodes = [
        _n("x", Op.INPUT),
        _n("y", Op.INPUT),
        _n("p", Op.MUL, "x", "y"),
        _n("q", Op.DIV, "p", "y"),
        _n("out", Op.OUTPUT, "q"),
    ]
    return DFGraph("intdiv", ScalarType.INT16, nodes, ["x", "y"], ["out"])


def float_graph():
    """Exercises every float op plus an export tap."""
    nodes = [
        _n("u", Op.INPUT),
        _n("v", Op.INPUT),
        _n("c", Op.CONST, value=0.75),
        _n("a", Op.ADD, "u", "c"),
        _n("t", Op.TAN, "a"),
        _n("at", Op.ARCTAN, "t"),
        _n("d", Op.DIV, "at", "v"),
        _n("sd", Op.SUB, "d", "u"),
        _n("ex", Op.EXPORT, "sd"),
        _n("m", Op.MUL, "sd", "v"),
        _n("out", Op.OUTPUT, "m"),
    ]
    return DFGraph("floaty", ScalarType.FLOAT64, nodes, ["u", "v"], ["out"])


def mixed_graph():
    """Two disjoint integer arithmetic regions feeding a float tail.

    Region one: m = x0 * 3, s = m + x1. Region two: d = y0 - y1, q = d * d.
    The float tail widens both region sinks.
    """
    i16 = ScalarType.INT16
    nodes = [
        _n("x0", Op.INPUT, dtype=i16),
        _n("x1", Op.INPUT, dtype=i16),
        _n("y0", Op.INPUT, dtype=i16),
        _n("y1", Op.INPUT, dtype=i16),
        _n("c3", Op.CONST, value=3, dtype=i16),
        _n("m", Op.MUL, "x0", "c3", dtype=i16),
        _n("s", Op.ADD, "m", "x1", dtype=i16),
        _n("d", Op.SUB, "y0", "y1", dtype=i16),
        _n("q", Op.MUL, "d", "d", dtype=i16),
        _n("w", Op.CONST, value=0.5),
        _n("fm", Op.MUL, "s", "w"),
        _n("fa", Op.ADD, "fm", "q"),
        _n("th", Op.ARCTAN, "fa"),
        _n("out", Op.OUTPUT, "th"),
    ]
    return DFGraph("mixed", ScalarType.FLOAT64, nodes, ["x0", "x1", "y0", "y1"], ["out"])


def div_by_const_graph(c):
    """q = (x * c) / c == x, with a constant divisor to steer round skipping."""
    nodes = [
        _n("x", Op.INPUT),
        _n("c", Op.CONST, value=c),
        _n("p", Op.MUL, "x", "c"),
        _n("q", Op.DIV, "p", "c"),
        _n("out", Op.OUTPUT, "q"),
    ]
    return DFGraph("divconst", ScalarType.INT16, nodes, ["x"], ["out"])
