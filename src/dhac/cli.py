"""Command line front end.

Exit codes: a check command (rcc, fbc-judge) exits 0 on a negative
verdict, 2 on a positive one and 3 on an inconclusive one; every other
command exits 0 when it succeeds. Any error (bad usage, bad files, bad
config) exits 1.

--program accepts either a builtin name (fir, fir_filter, conv2x2, euler,
euler2, euler3, runge_kutta, rk2, rk3, runge_kutta2, runge_kutta3,
conv_layer) or a path to a program JSON file; an instrumented file (as
written by fbc-instrument) is accepted wherever a program is.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, replace

from .approx import EXACT_UNIT, ArithBackend, IntUnitModel
from .errors import ConfigError, DhacError, InputError, ParseError, typed
from .fbc import (
    DEFAULT_DELTA,
    DEFAULT_STEPS,
    instrument_seeded,
    instrumented_from_dict,
    instrumented_to_dict,
    judge,
    sentinel_kind,
    sentinels_from_dict,
)
from .graph import DFGraph, Judgement, Trace, json_document, parse_program_dict
from .interp import evaluate
from .programs import BUILTIN_NAMES, builtin_program
from .rcc import ModuleSet, rcc_check
from .scenario import (
    ScenarioConfig,
    config_from_dict,
    report_to_csv,
    run_bench,
    sweep_threshold,
)

_EXIT_ERROR = 1
# the one rule from a verdict to the exit code a script acts on
_EXIT_CODES = {Judgement.NEGATIVE: 0, Judgement.POSITIVE: 2, Judgement.INCONCLUSIVE: 3}


class _Parser(argparse.ArgumentParser):
    # usage problems are errors (1), not verdicts (2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_ERROR, f"error: {message}\n")


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _text(path: str, data: bytes) -> str:
    """A file's bytes as text mode reads them: UTF-8, with universal newlines."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as e:  # one read decodes the whole file, so e.start is a file offset
        raise ParseError(f"{path}: not UTF-8 text (bad byte at offset {e.start})") from None


def _load_json(path: str):
    return json_document(_text(path, _read(path)), path)


class _LastFile:
    """A file reader that decodes a file's JSON document with `decode` and keeps the last result.

    Each call reads the file. The kept result is returned only for bytes with the same sha256 as
    the file it came from; other bytes are decoded anew. A failed decode keeps nothing, so a bad
    file fails the same way on every call.
    """

    def __init__(self, decode):
        self.decode = decode
        self.digest = self.result = None

    def __call__(self, path: str):
        data = _read(path)
        digest = hashlib.sha256(data).digest()
        if digest != self.digest:
            # each stage frees its input before the next one builds, as _load_json does
            text = _text(path, data)
            del data
            doc = json_document(text, path)
            del text
            self.result = self.decode(doc)
            self.digest = digest
        return self.result


def _program_from_dict(doc) -> DFGraph:
    if isinstance(doc, dict) and "sentinels" in doc:
        return instrumented_from_dict(doc).graph
    return parse_program_dict(doc)


# a process decodes each program once: the last program file and key file by their bytes, builtins by name
_program_file = _LastFile(_program_from_dict)
_key_file = _LastFile(sentinels_from_dict)


@functools.cache
def _builtin(name: str) -> DFGraph:
    return builtin_program(name)


def _load_program(value: str) -> DFGraph:
    if os.path.exists(value):
        return _program_file(value)
    if value in BUILTIN_NAMES:
        return _builtin(value)
    raise InputError(f"'{value}' is neither a file nor a builtin name")


def _load_inputs(path: str) -> list:
    return typed(_load_json(path), list, "inputs file", InputError)


def _number(text: str, flag: str, kind: type = int):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{flag}: {text!r} is not {'an integer' if kind is int else 'a number'}") from None


def _unit(text: str, flag: str) -> IntUnitModel:
    kind, _, k = text.partition(":")
    return IntUnitModel(kind, _number(k, flag) if k else 0)


def _backend_from_args(args) -> ArithBackend:
    adder = _unit(args.adder, "--adder") if args.adder else EXACT_UNIT
    mul = _unit(args.multiplier, "--multiplier") if args.multiplier else EXACT_UNIT
    return ArithBackend(adder, mul, args.fp_bits)


def _trace_from_dict(doc: dict) -> Trace:
    if not isinstance(doc, dict) or "outputs" not in doc or "exports" not in doc:
        raise InputError("trace file needs 'outputs' and 'exports'")
    exports = typed(doc["exports"], dict, "trace 'exports'", InputError)
    return Trace(
        outputs=tuple(typed(doc["outputs"], list, "trace 'outputs'", InputError, of=float)),
        exports={k: typed(v, float, f"trace export '{k}'", InputError) for k, v in exports.items()},
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _finish(out: str | None, doc, lines, judgement: Judgement = Judgement.NEGATIVE) -> int:
    """Every job command ends here: `doc()` as JSON to `out` when --out is given, `lines` on stdout, `judgement`'s code.

    `doc` builds the document, so that a command without --out builds none.
    """
    if out is not None:  # a verdict's doc is its dataclasses.asdict, whose enums JSON writes as their values
        _write_text(out, json.dumps(doc(), indent=2, default=lambda enum: enum.value) + "\n")
    for line in lines:
        print(line)
    return _EXIT_CODES[judgement]


def _cmd_run(args) -> int:
    g = _load_program(args.program)
    inputs = _load_inputs(args.inputs)
    backend = _backend_from_args(args)
    trace = evaluate(g, inputs, backend)
    # evaluate's trace holds Python ints and floats only
    doc = {"outputs": list(trace.outputs), "exports": trace.exports}
    return _finish(args.out, lambda: doc, [f"{nid} {v}" for nid, v in zip(g.outputs, trace.outputs)])


def _cmd_rcc(args) -> int:
    g = _load_program(args.program)
    inputs = _load_inputs(args.inputs)
    moduli = ModuleSet(tuple(_number(m, "--moduli") for m in args.moduli.split(",")))
    verdict = rcc_check(g, inputs, args.claimed, moduli)
    line = {
        Judgement.POSITIVE: f"positive (round {verdict.failed_round})",
        Judgement.INCONCLUSIVE: f"inconclusive (all {len(moduli)} rounds skipped)",
        Judgement.NEGATIVE: f"negative ({verdict.rounds_run} rounds)",
    }[verdict.judgement]
    return _finish(args.out, lambda: asdict(verdict), [line], verdict.judgement)


def _cmd_fbc_instrument(args) -> int:
    g = _load_program(args.program)
    kinds = [sentinel_kind(k, "--kinds", ConfigError) for k in args.kinds.split(",")]
    sites = None if args.sites == "auto" else args.sites.split(",")
    ins = instrument_seeded(g, kinds, sites, args.seed, g.name, n=args.n, delta=args.delta)
    return _finish(args.out, lambda: instrumented_to_dict(ins), [f"instrumented {g.name}: {len(ins.sentinels)} sentinels -> {args.out}"])


def _judge_doc(verdict) -> dict:
    doc = asdict(verdict)
    doc["sentinels"] = doc.pop("results")  # the file's name for the per-sentinel results
    return doc


def _cmd_fbc_judge(args) -> int:
    verdict = judge(_key_file(args.instrumented), _trace_from_dict(_load_json(args.trace)))
    lines = [f"{r.site} {r.kind.value} distance={r.distance:.3e} {'POSITIVE' if r.positive else 'negative'}" for r in verdict.results]
    return _finish(args.out, lambda: _judge_doc(verdict), [*lines, verdict.judgement.value], verdict.judgement)


def _make_config(args):
    doc = _load_json(args.config) if args.config else {}
    cfg = config_from_dict(doc)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "quick", None) is not None:
        cfg = replace(cfg, trials=args.quick)
    return cfg


def _write_report(args, report) -> int:
    _write_text(args.out, report_to_csv(report))
    if args.out:
        print(f"{len(report.rows)} rows -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    return _write_report(args, run_bench(_make_config(args), jobs=args.jobs))


def _cmd_sweep(args) -> int:
    return _write_report(args, sweep_threshold(_make_config(args), [_number(d, "--deltas", float) for d in args.deltas.split(",")]))


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--adder", help="integer adder unit, e.g. loa:4, trunc_add:6, seg_carry:4")
    p.add_argument("--multiplier", help="integer multiplier unit, e.g. trunc_mul:4, broken_array:4, log_approx")
    p.add_argument("--fp-bits", type=int, default=0, help="float mantissa bits to truncate (0 = exact)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dhac", description="verification toolkit against dishonest approximate computing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[], help="evaluate a program under a chosen backend")
    p.add_argument("--program", required=True)
    p.add_argument("--inputs", required=True, help="JSON array of input values")
    _add_backend_flags(p)
    p.add_argument("--out", help="write the trace (outputs + exports) as JSON")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("rcc", help="residue recheck of a claimed integer result")
    p.add_argument("--program", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--claimed", required=True, type=int, help="the result the server returned")
    p.add_argument("--moduli", default=",".join(map(str, ModuleSet().moduli)))
    p.add_argument("--out", help="write the verdict as JSON")
    p.set_defaults(func=_cmd_rcc)

    p = sub.add_parser("fbc-instrument", help="graft forward-backward sentinels onto a program")
    p.add_argument("--program", required=True)
    p.add_argument("--sites", default="auto", help="'auto' or comma-separated node ids")
    p.add_argument("--kinds", default=",".join(k.value for k in ScenarioConfig.fbc_kinds))
    p.add_argument("--n", type=int, default=DEFAULT_STEPS, help="forward steps per add/mul sentinel")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fbc_instrument)

    p = sub.add_parser("fbc-judge", help="judge a trace of an instrumented program")
    p.add_argument("--instrumented", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", help="write the verdict as JSON")
    p.set_defaults(func=_cmd_fbc_judge)

    p = sub.add_parser("bench", help="detection-rate campaign over programs and backends")
    p.add_argument("--config", help="campaign config (JSON); defaults apply without it")
    p.add_argument("--out", help="write the CSV report here instead of stdout")
    p.add_argument("--quick", type=int, nargs="?", const=500, help="cut trials per cell (default 500)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for independent cells")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="false rates across sentinel thresholds")
    p.add_argument("--config", help="campaign config (JSON)")
    p.add_argument("--deltas", required=True, help="comma-separated thresholds")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=_cmd_sweep)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    # A command's documents and graphs are acyclic, so reference counting frees
    # them; the cyclic collector would only re-scan them while they are built.
    # A graph kept for later commands (_load_program) outlives its command: the
    # first young collection after it traverses that graph once, as it ages.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except (DhacError, OSError, ValueError) as e:  # ValueError: a bad value no check above turned into a DhacError
        # one line, even where the message quotes a document's own text
        print("error: " + str(e).replace("\n", "\\n"), file=sys.stderr)
        return _EXIT_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
