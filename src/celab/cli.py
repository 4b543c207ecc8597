"""Batch front-end: run engines, check domination witnesses, enumerate the
toy halting probability, and verify or replay recorded traces.

Exit codes: 0 all checks green, 1 a verification check failed or a replay
mismatched, 2 configuration error.  The output directory for run artifacts
is --out-dir, or the CELAB_OUT_DIR environment variable, or the current
directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import closing, contextmanager
from pathlib import Path

from .config import (ENGINES, ConfigError, Engine, build_stream, load_config, load_machine,
                     rational_arg)
from .omega import MachineDefinitionError, OmegaEnumeration
from .rationals import Rational, format_rational
from .solovay import (
    SolovayWitness,
    check_clause_a,
    check_clause_b_horizon,
    check_clause_c,
    speedup,
)
from .streams import ApproxStream, Direction, StreamError
from .trace import differing_keys, read_trace, write_trace, TraceFormatError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _out_dir(args) -> Path:
    """The output directory, made if need be; one that cannot be made is a
    configuration error."""
    path = Path(args.out_dir or os.environ.get("CELAB_OUT_DIR") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make output directory {path}: {e}") from None
    return path


@contextmanager
def _writing(path: Path):
    """A file that cannot be written in this block is a configuration error."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None


def _stream_arg(text: str, label: str) -> ApproxStream:
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"bad stream spec {text!r}: {e}") from None
    return build_stream(spec, Direction.INCREASING, label=label)


def _at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise ConfigError(f"{flag} must be >= {low}, got {value}")


def _positive(text: str, flag: str) -> Rational:
    value = rational_arg(text, flag)
    if value <= 0:
        raise ConfigError(f"{flag} must be positive, got {text}")
    return value


def cmd_run(args) -> int:
    rc = load_config(args.config)
    if rc.engine != args.engine:
        raise ConfigError(f"config engine is {rc.engine!r}, expected {args.engine!r}")
    entry = ENGINES[rc.engine]
    config = entry.build(rc)
    out = _out_dir(args)  # before any stage runs
    engine = entry.engine(config)
    trace_path = out / f"{rc.engine}.trace.jsonl"
    with _writing(trace_path):
        write_trace(trace_path, {"engine": rc.engine, "stages": rc.stages},
                    engine.records(), engine.snapshot)
    report = _verify_trace(trace_path)
    for path, text in ((out / f"{rc.engine}.report.txt", report.render_text()),
                       (out / f"{rc.engine}.report.json",
                        json.dumps(report.to_dict(), indent=2))):
        with _writing(path):
            path.write_text(text + "\n")
    print(report.render_text())
    print(f"trace: {trace_path}")
    return EXIT_OK if report.all_green else EXIT_CHECK_FAILED


def cmd_solovay_check(args) -> int:
    _at_least(args.stages, 0, "--stages")
    alpha, beta = _stream_arg(args.alpha, "alpha"), _stream_arg(args.beta, "beta")
    w = SolovayWitness(_positive(args.q, "--q"), alpha, beta)
    if args.clause == "a":
        verdict = check_clause_a(w, args.stages)
    elif args.clause == "c":
        verdict = check_clause_c(w, args.stages)
    else:
        horizon = args.horizon if args.horizon is not None else max(2 * args.stages, 1)
        _at_least(horizon, args.stages + 1, "--horizon")
        verdict = check_clause_b_horizon(w, args.stages, horizon)
        print("note: clause b is checked against a horizon proxy (diagnostic)")
    if verdict.holds:
        print(f"clause {args.clause} holds on prefix T={args.stages} at q={args.q}")
        return EXIT_OK
    print(f"clause {args.clause} fails at s={verdict.fails_at} (q={args.q})")
    return EXIT_CHECK_FAILED


def cmd_solovay_speedup(args) -> int:
    _at_least(args.stages, 0, "--stages")
    alpha, beta = _stream_arg(args.alpha, "alpha"), _stream_arg(args.beta, "beta")
    gamma = speedup(alpha, beta, _positive(args.p, "--p"))
    for s in range(args.stages + 1):
        print(format_rational(gamma.value(s)))
    return EXIT_OK


def cmd_omega_enumerate(args) -> int:
    machine = load_machine(args.machine)
    _at_least(args.length, 1, "--length")
    _at_least(args.stages, 0, "--stages")
    try:
        enum = OmegaEnumeration(machine, args.length)  # refuses an oversized pool
        for s in range(args.stages + 1):
            print(f"{s}\t{format_rational(enum.omega(s))}")
    except (ValueError, MachineDefinitionError) as e:
        raise ConfigError(f"machine {args.machine}: {e}") from None
    return EXIT_OK


def _traced_engine(header: dict) -> Engine:
    name = header.get("engine")
    if not isinstance(name, str) or name not in ENGINES:
        raise ConfigError(f"trace header names unknown engine {name!r}")
    return ENGINES[name]


def _fold_trace(path: Path | str, fold, reached):
    """`fold(engine entry, events, final record)` on the trace at `path`,
    its events read as the fold reads them; `reached(result)` is the last
    stage the fold read.  A trace that cannot be read, a record that breaks
    its kind's layout, or a header whose `stages` is not that stage as an
    integer is a configuration error.  The last refuses a trace cut at a
    stage boundary: its final record may agree with the events kept, but
    its header does not.  A TraceFormatError's message starts with `path`
    (and the line), so the error names the file once."""
    try:
        header, events, final = read_trace(path)
        with closing(events):
            result = fold(_traced_engine(header), events, final)
    except TraceFormatError as e:
        raise ConfigError(f"cannot read trace {e}") from None
    except OSError as e:
        raise ConfigError(f"cannot read trace {path}: {e}") from None
    stages = header.get("stages")
    if type(stages) is not int or stages != reached(result):
        raise ConfigError(f"cannot read trace {path}: header stages {stages!r}, "
                          f"events reach stage {reached(result)}")
    return result


def _verify_trace(path: Path | str):
    return _fold_trace(path, lambda entry, events, final: entry.verify(events, final),
                       lambda report: report.stats["stages"])


def cmd_verify(args) -> int:
    report = _verify_trace(args.trace)
    print(report.render_text())
    if report.all_green:
        return EXIT_OK
    print(f"first violated invariant: {report.first_failure()}")
    return EXIT_CHECK_FAILED


def cmd_replay(args) -> int:
    rebuilt, recorded = _fold_trace(
        args.trace, lambda entry, events, final: (entry.replay(events), final),
        lambda folded: folded[0]["stage"])
    if rebuilt == recorded:
        print("replay: final state reproduced bit-exactly")
        return EXIT_OK
    for key in differing_keys(rebuilt, recorded):
        print(f"replay mismatch at {key!r}:")
        print(f"  recorded: {recorded.get(key)}")
        print(f"  replayed: {rebuilt.get(key)}")
    return EXIT_CHECK_FAILED


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (about 1.7 ms) and
    shared by every `main` call: parsing leaves it unchanged, and no caller
    may change it."""
    parser = argparse.ArgumentParser(
        prog="celab",
        description="exact-arithmetic laboratory for c.e.-real approximation runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ENGINES:
        p = sub.add_parser(f"run-{name}", help=f"run the {name} engine from a config")
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=None)
        p.set_defaults(func=cmd_run, engine=name)

    p = sub.add_parser("solovay", help="domination witness checks and speed-up")
    ssub = p.add_subparsers(dest="solovay_command", required=True)
    pc = ssub.add_parser("check")
    pc.add_argument("--clause", choices=("a", "b", "c"), required=True)
    pc.add_argument("--q", required=True, help='rational "p/q"')
    pc.add_argument("--alpha", required=True, help="stream spec JSON")
    pc.add_argument("--beta", required=True, help="stream spec JSON")
    pc.add_argument("--stages", type=int, default=64)
    pc.add_argument("--horizon", type=int, default=None,
                    help="clause b only; above --stages (default twice --stages)")
    pc.set_defaults(func=cmd_solovay_check)
    ps = ssub.add_parser("speedup")
    ps.add_argument("--p", required=True, help='rational "p/q"')
    ps.add_argument("--alpha", required=True, help="stream spec JSON")
    ps.add_argument("--beta", required=True, help="stream spec JSON")
    ps.add_argument("--stages", type=int, default=64)
    ps.set_defaults(func=cmd_solovay_speedup)

    p = sub.add_parser("omega", help="toy halting-probability enumeration")
    osub = p.add_subparsers(dest="omega_command", required=True)
    pe = osub.add_parser("enumerate")
    pe.add_argument("--machine", default="pair", help="bundled name or definition file")
    pe.add_argument("--length", type=int, required=True, help="max program length")
    pe.add_argument("--stages", type=int, required=True)
    pe.set_defaults(func=cmd_omega_enumerate)

    p = sub.add_parser("verify", help="re-check every invariant of a recorded trace")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="rebuild the final state from a trace and compare")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a long run's exact values outgrow the interpreter's int <-> str digit
    # limit (4300 by default); lift it for the command only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ConfigError, StreamError) as e:  # a stream a config or flag defines broke its contract
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
