"""Every JSON document the CLI reads follows one typing rule (errors.typed).

A malformed program, instrumented file, trace, inputs file or config exits
1 with one stderr line naming the field and the bad value, and never ends
in a traceback.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dhac import (
    ArithBackend,
    ConfigError,
    DhacError,
    IntUnitModel,
    ScenarioConfig,
    Sentinel,
    SentinelKind,
    ServerStrategy,
    ValidationError,
    config_from_dict,
    evaluate,
    instrument,
    make_sentinel,
    program_to_dict,
    sweep_threshold,
)
from dhac.cli import main
from dhac.errors import typed
from dhac.fbc import instrumented_from_dict, instrumented_to_dict
from dhac.rng import substream
from graphs import float_graph

PROGRAM = program_to_dict(float_graph())
INSTRUMENTED = instrumented_to_dict(
    instrument(float_graph(), [make_sentinel(k, s, substream(0, k)) for k, s in (("add", "a"), ("mul", "d"), ("tan", "m"))])
)
CONFIG = {
    "seed": 0,
    "trials": 10000,
    "strategy": {"honest_warmup": 10, "small_job_threshold": 30, "dishonest_prob": 1.0},
    "moduli": [3, 5, 7],
    "rcc": {"programs": ["fir", {"name": "euler", "steps": 5, "label": "e5"}], "combos": [{"adder": {"kind": "loa", "k": 4}, "multiplier": {"kind": "log_approx"}, "fp_trunc_bits": 0}]},
    "fbc": {"programs": ["conv_layer"], "fp_bits": [10, 20], "kinds": ["add", "mul", "tan"], "n": 3, "delta": 1e-13, "sites": "auto"},
}
FLOAT_INPUTS = [0.5, 1.25]
CONV_INPUTS = [2, 3, 4, 5, 6, 7, 8, 9]
_TRACE = evaluate(instrumented_from_dict(INSTRUMENTED).graph, FLOAT_INPUTS, ArithBackend())
TRACE = {"outputs": list(_TRACE.outputs), "exports": _TRACE.exports}


def _run(argv) -> tuple[int, str]:
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _write(d, name: str, doc) -> str:
    p = d / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """A directory holding valid inputs.json, ins.json (instrumented) and trace.json."""
    d = tmp_path_factory.mktemp("documents")
    for name, doc in (("inputs.json", FLOAT_INPUTS), ("ins.json", INSTRUMENTED), ("trace.json", TRACE)):
        _write(d, name, doc)
    return d


# ---------------------------------------------------------------------------
# the rule itself


class TestTyped:
    @pytest.mark.parametrize(
        "value, kind, got",
        [
            (3, int, 3),
            (3, float, 3.0),
            (2.5, float, 2.5),
            (float("inf"), float, float("inf")),
            ("x", str, "x"),
            ([1], list, [1]),
            ({"a": 1}, dict, {"a": 1}),
        ],
    )
    def test_accepts(self, value, kind, got):
        assert typed(value, kind, "'f'", ConfigError) == got
        assert type(typed(value, kind, "'f'", ConfigError)) is type(got)

    @pytest.mark.parametrize(
        "value, kind, want",
        [
            (True, int, "an integer"),
            (2.0, int, "an integer"),
            ("3", int, "an integer"),
            (False, float, "a number"),
            ("1e-13", float, "a number"),
            (10**400, float, "a number"),  # no float holds it
            (None, float, "a number"),
            (7, str, "a string"),
            ("ab", list, "a list"),
            ([], dict, "an object"),
        ],
    )
    def test_rejects(self, value, kind, want):
        with pytest.raises(ConfigError) as e:
            typed(value, kind, "'f'", ConfigError)
        assert str(e.value) == f"'f' must be {want}, got {value!r}"

    def test_list_items(self):
        assert typed([1, 2], list, "'m'", ConfigError, of=int) == [1, 2]
        with pytest.raises(ConfigError, match=r"^'m' must be an integer, got 2\.5$"):
            typed([1, 2.5], list, "'m'", ConfigError, of=int)
        with pytest.raises(ConfigError, match=r"^'m' must be a list of integers, got 5$"):
            typed(5, list, "'m'", ConfigError, of=int)


# ---------------------------------------------------------------------------
# documents that used to run, each now one line naming the field and value


def _sentinel0(**fields):
    def mutate(doc):
        doc["sentinels"][0].update(fields)

    return mutate


def _operand(value):
    def mutate(doc):
        doc["sentinels"][0]["operands"][1] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (_sentinel0(n=3.9), "sentinels[0]: 'n' must be an integer, got 3.9"),
        (_sentinel0(n="3"), "sentinels[0]: 'n' must be an integer, got '3'"),
        (_sentinel0(delta="1e-13"), "sentinels[0]: 'delta' must be a number, got '1e-13'"),
        (_sentinel0(delta=True), "sentinels[0]: 'delta' must be a number, got True"),
        (_sentinel0(site=5), "sentinels[0]: 'site' must be a string, got 5"),
        (_operand(True), "sentinels[0]: 'operands' must be a number, got True"),
        (_operand("1e-6"), "sentinels[0]: 'operands' must be a number, got '1e-6'"),
    ],
)
def test_bad_instrumented_field(docs, mutate, msg):
    doc = copy.deepcopy(INSTRUMENTED)
    mutate(doc)
    code, err = _run(["fbc-judge", "--instrumented", _write(docs, "bad.json", doc), "--trace", str(docs / "trace.json")])
    assert (code, err) == (1, f"error: {msg}\n")


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda doc: doc.update(name=["x"]), "program 'name' must be a string, got ['x']"),
        (lambda doc: doc["nodes"][0].update(id=7), "node id must be a non-empty string, got 7"),
        # a newline the message quotes stays escaped, so the error is one line
        (lambda doc: doc["nodes"][3].update(operands=["\n", "c"]), "node 'a': unknown operand id '\\n'"),
    ],
)
def test_bad_program_field(docs, mutate, msg):
    doc = copy.deepcopy(PROGRAM)
    mutate(doc)
    code, err = _run(["run", "--program", _write(docs, "bad.json", doc), "--inputs", str(docs / "inputs.json")])
    assert (code, err) == (1, f"error: {msg}\n")


@pytest.mark.parametrize(
    "doc, msg",
    [
        ({"strategy": {"dishonest_prob": "0.5"}}, "bad config value: 'dishonest_prob' must be a number, got '0.5'"),
        ({"strategy": {"dishonest_prob": True}}, "bad config value: 'dishonest_prob' must be a number, got True"),
        ({"fbc": {"delta": "1e-13"}}, "bad config value: 'delta' must be a number, got '1e-13'"),
        ({"fbc": {"delta": True}}, "bad config value: 'delta' must be a number, got True"),
        ({"rcc": {"programs": [{"name": "fir", "label": ["x"]}]}}, "bad config value: 'label' must be a string, got ['x']"),
        ({"strategy": {"dishonest_porb": 0.5}}, "unknown config 'strategy' keys: ['dishonest_porb']"),
        ({"rcc": {"program": ["fir"]}}, "unknown config 'rcc' keys: ['program']"),
        ({"fbc": {"detla": 1e-12}}, "unknown config 'fbc' keys: ['detla']"),
    ],
)
def test_bad_config_field(docs, doc, msg):
    code, err = _run(["bench", "--quick", "5", "--config", _write(docs, "cfg.json", doc)])
    assert (code, err) == (1, f"error: {msg}\n")


def test_an_integer_number_field_is_its_float():
    cfg = config_from_dict({"strategy": {"dishonest_prob": 1}, "fbc": {"delta": 1}})
    assert type(cfg.strategy.dishonest_prob) is float and type(cfg.fbc_delta) is float


# ---------------------------------------------------------------------------
# settings built in code take the same integer and number tests as documents


@pytest.mark.parametrize(
    "build, error, msg",
    [
        (lambda: IntUnitModel("loa", 1.5), ConfigError, "loa: parameter must be an integer, got 1.5"),
        (lambda: IntUnitModel("loa", True), ConfigError, "loa: parameter must be an integer, got True"),
        (lambda: IntUnitModel("exact", 0.0), ConfigError, "exact: parameter must be an integer, got 0.0"),
        (lambda: IntUnitModel("loa", np.True_), ConfigError, f"loa: parameter must be an integer, got {np.True_!r}"),
        (lambda: ArithBackend(fp_bits=1.5), ConfigError, "fp truncation bits must be an integer, got 1.5"),
        (lambda: ArithBackend(fp_bits=True), ConfigError, "fp truncation bits must be an integer, got True"),
        (lambda: make_sentinel("add", "a", substream(0), n=2.5), ValidationError, "sentinel n must be an integer, got 2.5"),
        (lambda: make_sentinel("tan", "a", substream(0), n=True), ValidationError, "sentinel n must be an integer, got True"),
        (lambda: make_sentinel("mul", "a", substream(0), delta=True), ValidationError, "delta must be a number, got True"),
        (lambda: Sentinel(SentinelKind.TAN_ARCTAN, "a", True, ()), ValidationError, "tan sentinel has n=1 and no operands"),
        (lambda: substream(1.5, "x"), ConfigError, "seed must be an integer, got 1.5"),
        (lambda: substream(True, "x"), ConfigError, "seed must be an integer, got True"),
        (lambda: ScenarioConfig(trials=1.5), ConfigError, "trials must be an integer, got 1.5"),
        (lambda: ScenarioConfig(seed=False), ConfigError, "seed must be an integer, got False"),
        (lambda: ScenarioConfig(fbc_n=3.0), ConfigError, "sentinel n must be an integer, got 3.0"),
        (lambda: ScenarioConfig(fbc_delta=True), ConfigError, "delta must be a number, got True"),
        (lambda: ScenarioConfig(fp_bits=(10.0,)), ConfigError, "fp truncation bits must be an integer, got 10.0"),
        (lambda: ServerStrategy(dishonest_prob=True), ConfigError, "dishonest_prob must be a number, got True"),
        (lambda: ServerStrategy(honest_warmup=2.5), ConfigError, "honest_warmup must be an integer, got 2.5"),
        (lambda: ServerStrategy(small_job_threshold=np.True_), ConfigError, f"small_job_threshold must be an integer, got {np.True_!r}"),
        (lambda: sweep_threshold(ScenarioConfig(fbc_programs=()), [1e-13, True]), ConfigError, "delta must be a number, got True"),
        (lambda: sweep_threshold(ScenarioConfig(fbc_programs=()), ["1e-13"]), ConfigError, "delta must be a number, got '1e-13'"),
    ],
)
def test_a_setting_refuses_a_bool_or_a_float_for_an_integer(build, error, msg):
    with pytest.raises(error) as e:
        build()
    assert str(e.value) == msg


def test_a_numpy_integer_is_an_integer_setting():
    assert ArithBackend(IntUnitModel("loa", np.int16(4)), fp_bits=np.int64(10)).label() == "loa(4)+exact+fp_trunc(10)"
    assert substream(np.int64(7), "x").integers(1 << 30) == substream(7, "x").integers(1 << 30)
    assert ScenarioConfig(seed=np.int32(1), trials=np.int64(5)).trials == 5


# ---------------------------------------------------------------------------
# fuzzing every document type


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _at(doc, path):
    """(container, key) of the value at a non-empty path."""
    for k in path[:-1]:
        doc = doc[k]
    return doc, path[-1]


_ODD_VALUES = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.floats(),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=2)), max_size=2),
    st.none(),
)


@st.composite
def mutated(draw, doc):
    """doc with one value replaced by an odd one, one key or item dropped, or one key added."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    how = draw(st.sampled_from(["replace", "drop", "add"]))
    if how == "add":
        target = doc
        for k in path:
            target = target[k]
        if isinstance(target, dict):
            target[draw(st.sampled_from(["extra", "kind", "n", "id"]))] = draw(_ODD_VALUES)
        return doc
    if not path:
        return draw(_ODD_VALUES) if how == "replace" else doc
    parent, key = _at(doc, path)
    if how == "replace":
        parent[key] = draw(_ODD_VALUES)
    else:
        del parent[key]
    return doc


@st.composite
def poisoned(draw, doc):
    """doc with a bool in place of any value, or a number's digits as a string in place of the number.

    No field of any dhac document takes either, so the document must be rejected.
    """
    doc = copy.deepcopy(doc)
    numbers = [p for p in _paths(doc) if p and type(_at(doc, p)[0][p[-1]]) in (int, float)]
    if draw(st.booleans()):
        parent, key = _at(doc, draw(st.sampled_from(numbers)))
        parent[key] = str(parent[key])
        return doc
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(st.booleans())
    parent, key = _at(doc, path)
    parent[key] = draw(st.booleans())
    return doc


DOCUMENTS = {
    "program": PROGRAM,
    "instrumented": INSTRUMENTED,
    "trace": TRACE,
    "float inputs": FLOAT_INPUTS,
    "int inputs": CONV_INPUTS,
    "config": CONFIG,
}


def _read(docs, kind: str, doc) -> tuple[int, str]:
    """(exit code, stderr) of the command that reads a `kind` document, or of config_from_dict."""
    if kind == "config":  # no campaign runs
        try:
            config_from_dict(doc)
        except DhacError as e:
            return 1, f"error: {e}\n"
        return 0, ""
    path = _write(docs, "fuzzed.json", doc)
    good = {k: str(docs / f) for k, f in (("program", "ins.json"), ("trace", "trace.json"), ("inputs", "inputs.json"))}
    if kind == "program":
        return _run(["run", "--program", path, "--inputs", good["inputs"]])
    if kind == "instrumented":  # read as a program by `run`, then by the judge
        code, err = _run(["run", "--program", path, "--inputs", good["inputs"]])
        return (code, err) if code == 1 else _run(["fbc-judge", "--instrumented", path, "--trace", good["trace"]])
    if kind == "trace":
        return _run(["fbc-judge", "--instrumented", good["program"], "--trace", path])
    if kind == "float inputs":
        return _run(["run", "--program", good["program"], "--inputs", path])
    return _run(["rcc", "--program", "conv2x2", "--inputs", path, "--claimed", "110"])


@pytest.mark.parametrize("kind", DOCUMENTS)
@given(data=st.data())
def test_fuzzed_document_never_ends_in_a_traceback(docs, kind, data):
    code, err = _read(docs, kind, data.draw(mutated(DOCUMENTS[kind])))
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kind", DOCUMENTS)
@given(data=st.data())
def test_bool_or_quoted_number_is_rejected(docs, kind, data):
    code, err = _read(docs, kind, data.draw(poisoned(DOCUMENTS[kind])))
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (code, err)


def test_unmutated_documents_are_read(docs):
    for kind, doc in DOCUMENTS.items():
        code, err = _read(docs, kind, doc)
        assert code != 1, (kind, err)
