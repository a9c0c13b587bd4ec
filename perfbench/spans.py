"""Per-layer spans recorded from outside the dhac package.

`install` rebinds each layer's public functions at every name a dhac module
looks them up by (for example `dhac.scenario.evaluate_batch` as well as
`dhac.interp.evaluate_batch`), so calls made between layers are recorded
without touching the package. A span is (name, start, end, parent, run id,
arg); `arg` carries the work a call did (graph nodes, nodes x trials) or the
modulus of a residue pass. Spans stay in memory until the run ends.

A target that no longer exists is skipped: its metrics read 0 and the run
goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns


def _nodes(a, kw):
    graph = a[0] if a else kw["graph"]
    return len(graph.nodes)


def _node_trials(a, kw):
    graph = a[0] if a else kw["graph"]
    inputs = a[1] if len(a) > 1 else kw["inputs"]
    return len(graph.nodes) * (len(inputs[0]) if len(inputs) else 0)


def _modulus(a, kw):
    return int(a[2] if len(a) > 2 else kw["m"])


# (span name, module, attribute, arg function). The span name's prefix
# before the first dot is the layer.
TARGETS = (
    ("programs.builtin_spec", "dhac.programs", "builtin_spec", None),
    ("programs.draw_inputs", "dhac.programs", "draw_inputs", None),
    ("graph.validate", "dhac.graph", "DFGraph.validate", None),
    ("graph.parse_program", "dhac.graph", "parse_program", None),
    ("graph.parse_program_dict", "dhac.graph", "parse_program_dict", None),
    ("graph.instrumented_from_dict", "dhac.fbc", "instrumented_from_dict", None),
    ("fbc.judge", "dhac.fbc", "judge", None),
    ("interp.evaluate", "dhac.interp", "evaluate", _nodes),
    ("interp.evaluate_batch", "dhac.interp", "evaluate_batch", _node_trials),
    ("approx.add16_batch", "dhac.approx", "add16_batch", None),
    ("approx.mul16_batch", "dhac.approx", "mul16_batch", None),
    ("rcc.residues_batch", "dhac.rcc", "residues_batch", _modulus),
    ("rcc.rcc_check", "dhac.rcc", "rcc_check", None),
    ("rcc.evaluate_mod", "dhac.rcc", "evaluate_mod", None),
    ("scenario.run_bench", "dhac.scenario", "run_bench", None),
    ("scenario.report_to_csv", "dhac.scenario", "report_to_csv", None),
    ("cli.main", "dhac.cli", "main", None),
)

# The moduli that get their own residue metric (the default ModuleSet).
MODULI = (3, 5, 7)


class Recorder:
    """In-memory span store. `run_id` tags every span opened while it is set."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.arg = array("q")
        self.run_id = 0
        self._stack: list[int] = []

    def __len__(self):
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, arg=None):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.arg.append(_safe_arg(arg, a, kw))
            self.start.append(0)
            self.end.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                return fn(*a, **kw)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1

        return wrapper

    def extend(self, other: dict) -> None:
        """Append spans recorded in another process (a `to_dict` result)."""
        base = len(self)
        ids = [self._intern(n) for n in other["names"]]
        self.name_id.extend(ids[i] for i in other["name"])
        self.start.extend(other["start_ns"])
        self.end.extend(other["end_ns"])
        self.parent.extend(p + base if p >= 0 else -1 for p in other["parent"])
        self.run.extend(other["run"])
        self.arg.extend(other["arg"])

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += own[i]
        return [o - c for o, c in zip(own, child)]

    def to_dict(self) -> dict:
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "run", "arg"],
            "names": self.names,
            "name": list(self.name_id),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "parent": list(self.parent),
            "run": list(self.run),
            "arg": list(self.arg),
        }


def _safe_arg(arg, a, kw) -> int:
    # A changed signature must not fail the run; the span just carries 0.
    if arg is None:
        return 0
    try:
        return int(arg(a, kw))
    except (IndexError, KeyError, TypeError, AttributeError):
        return 0


def install(recorder: Recorder, targets=TARGETS):
    """Wrap every target that exists; returns an undo list for `uninstall`."""
    undo = []
    for name, module, attr, arg in targets:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            continue
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            fn = owner.__dict__.get(member) if isinstance(owner, type) else None
            if not callable(fn):
                continue
            undo.append((owner, member, fn))
            setattr(owner, member, recorder.wrap(name, fn, arg))
            continue
        fn = getattr(mod, attr, None)
        if not callable(fn):
            continue
        wrapped = recorder.wrap(name, fn, arg)
        # rebind every `from .x import f` copy, so callers see the wrapper
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "dhac" or mname.startswith("dhac.")):
                continue
            for key, value in list(vars(m).items()):
                if value is fn:
                    undo.append((m, key, fn))
                    setattr(m, key, wrapped)
    return undo


def uninstall(undo) -> None:
    for owner, key, fn in reversed(undo):
        setattr(owner, key, fn)


def layer_metrics(rec: Recorder, ops: int) -> dict[str, float]:
    """Per-layer metrics, normalized per operation (campaign or job).

    `_s` metrics are self time; the per-node ratios use the whole span, as
    they describe evaluation including the unit lanes it calls.
    """
    own = rec.self_ns()
    by: dict[str, list[int]] = {}
    for i, nid in enumerate(rec.name_id):
        by.setdefault(rec.names[nid], []).append(i)

    def idx(*names):
        return [i for n in names for i in by.get(n, [])]

    def self_s(*names):
        return sum(own[i] for i in idx(*names)) / 1e9 / ops

    def calls(*names):
        return len(idx(*names)) / ops

    def dur_ns(*names):
        return sum(rec.end[i] - rec.start[i] for i in idx(*names))

    def args(*names):
        return sum(rec.arg[i] for i in idx(*names))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "programs.build_s": self_s("programs.builtin_spec"),
        "programs.build_calls": calls("programs.builtin_spec"),
        "programs.draw_inputs_s": self_s("programs.draw_inputs"),
        "graph.validate_s": self_s("graph.validate"),
        "graph.validate_calls": calls("graph.validate"),
        "graph.parse_s": self_s(
            "graph.parse_program", "graph.parse_program_dict", "graph.instrumented_from_dict"
        ),
        "fbc.judge_s": self_s("fbc.judge"),
        "interp.evaluate_s": self_s("interp.evaluate"),
        "interp.evaluate_calls": calls("interp.evaluate"),
        "interp.evaluate_us_per_node": ratio(dur_ns("interp.evaluate") / 1e3, args("interp.evaluate")),
        "interp.evaluate_batch_s": self_s("interp.evaluate_batch"),
        "interp.evaluate_batch_calls": calls("interp.evaluate_batch"),
        "interp.node_trials": args("interp.evaluate_batch") / ops,
        "interp.ns_per_node_trial": ratio(dur_ns("interp.evaluate_batch"), args("interp.evaluate_batch")),
    }
    for unit in ("add16_batch", "mul16_batch"):
        m[f"approx.{unit}_s"] = self_s(f"approx.{unit}")
        m[f"approx.{unit}_calls"] = calls(f"approx.{unit}")
    m["rcc.residues_batch_s"] = self_s("rcc.residues_batch")
    for mod in MODULI:
        picked = [i for i in idx("rcc.residues_batch") if rec.arg[i] == mod]
        m[f"rcc.residues_batch_s.m{mod}"] = sum(own[i] for i in picked) / 1e9 / ops
    m["rcc.check_s"] = self_s("rcc.rcc_check")
    m["rcc.check_calls"] = calls("rcc.rcc_check")
    m["rcc.evaluate_mod_s"] = self_s("rcc.evaluate_mod")
    m["scenario.self_s"] = self_s("scenario.run_bench")
    m["scenario.csv_s"] = self_s("scenario.report_to_csv")
    m["cli.self_s"] = self_s("cli.main")
    m["cli.calls"] = calls("cli.main")
    return m


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric."""
    if metric == "trace.overhead_frac":
        return "ratio"
    if metric.endswith("_s") or ".residues_batch_s.m" in metric:
        return "s"
    if metric.endswith(("calls", "node_trials")):
        return "count"
    return {"interp.evaluate_us_per_node": "us", "interp.ns_per_node_trial": "ns"}[metric]
