"""dhac: detect jobs silently executed on approximate hardware.

Two golden-model-free checks over scalar dataflow programs: a residue
recheck for integer jobs (rcc) and forward-backward float sentinels (fbc),
plus parametric models of approximate arithmetic units and a strategically
dishonest server to measure both checks against.

Each public name is imported from its submodule on first use (PEP 562), so
`import dhac` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name.
_EXPORTS = {
    "approx": ("ArithBackend", "ErrorStats", "IntUnitModel", "error_stats", "trunc_mantissa"),
    "errors": (
        "BuiltinError", "ConfigError", "DhacError", "EvalError", "InputError", "ModulusError",
        "NoInverseError", "ParseError", "SiteError", "StatsError", "TraceError", "ValidationError",
    ),
    "fbc": (
        "FbcVerdict", "InstrumentedGraph", "Sentinel", "SentinelKind", "SentinelResult",
        "auto_sites", "instrument", "judge", "make_sentinel",
    ),
    "graph": (
        "DFGraph", "DFNode", "Judgement", "Op", "ScalarType", "Trace",
        "op_census", "parse_program", "program_to_dict", "serialize_program",
    ),
    "interp": ("evaluate", "evaluate_batch"),
    "programs": ("BuiltinSpec", "builtin_program", "builtin_spec", "draw_inputs"),
    "rcc": (
        "ModuleSet", "RccVerdict", "Residue", "evaluate_mod", "rcc_check",
        "ring_add", "ring_div", "ring_inv", "ring_mul", "ring_sub", "to_residue",
    ),
    "rng": ("substream",),
    "scenario": (
        "DetectionReport", "ScenarioConfig", "ServerState", "ServerStrategy", "backend_from_dict",
        "config_from_dict", "default_combos", "report_to_csv", "run_bench", "run_fbc_trials",
        "run_rcc_trials", "server_execute", "server_state", "sweep_threshold",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
