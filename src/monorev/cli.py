"""Command line interface.

Exit codes are uniform across subcommands: 0 for success or a passing
check, 1 for a definite failure or counterexample, 2 for inconclusive
outcomes (reversals proved to cycle, fuel exhaustion, stuck reversals,
ambiguous preconditions, oracle and sweep caps), 3 for usage and input
errors.  A command whose stdout has lost its reader (`monorev show e8:new
| head -1`) prints nothing more and exits 2: its outcome never reached
the reader.

Every subcommand is made by `_command`, which declares its positionals and
the options it shares with other commands (`--left`, `--fuel`, `--format`,
`--window`, `--cap`), each in one place.  Every command but `list`, `show`
and `derive` gets its input from `_request`: the presentation, windowed for
the oracle commands, and its words parsed in the presentation's alphabet.
`show` and `derive` call `_load` themselves.

A command imports what it runs.  At module level this file loads only
`catalog` and the `presentation` and `words` modules under it, which
`list` and `show` need and every other command loads anyway; each
`_cmd_*` function, and each helper that reads reversal outcomes, imports
the rest itself.  So `monorev list` never loads the reversing kernel, and
`monorev certify` never loads the oracle, the derivation checker or the
grid view.  `main` catches the errors of modules it has not loaded by
their bases: `CapError` from `presentation`, `ValueError` and `OSError`.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import TYPE_CHECKING

from . import catalog
from .presentation import (
    DEFAULT_FUEL,
    AmbiguousComplementError,
    CapError,
    Presentation,
    instantiate_window,
    load_presentation,
    save_presentation,
)

if TYPE_CHECKING:
    from .reversing import Outcome, ReversalTrace
    from .words import Word

OK, FAIL, INCONCLUSIVE, USAGE = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2, we reserve that
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    """A file's text; bytes that are not UTF-8 are an input error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()  # decodes the whole file at once, so offsets are absolute
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8 at byte {exc.start} "
                             f"({exc.reason})") from None


def _load(source: str) -> Presentation:
    try:
        return catalog.load(source)
    except (KeyError, ValueError) as exc:  # an unknown key, or an affine key's bad rank
        if os.path.exists(source):
            return load_presentation(_read(source), name=os.path.basename(source))
        if isinstance(exc, ValueError):
            raise
    raise KeyError(f"{source!r} is neither a catalog key nor a presentation file; "
                   "see 'monorev list'")


def _request(args, *names: str) -> tuple[Presentation, list[Word]]:
    """The command's presentation, windowed when the command has --window and
    the presentation an integer family, and the named words parsed in it."""
    p = _load(args.presentation)
    if hasattr(args, "window") and p.alphabet.integer_families:
        p = instantiate_window(p, args.window)
    return p, [p.parse(getattr(args, name)) for name in names]


def _check_output(path: str | None) -> None:
    """Raise before the work what writing to path after it would: path is empty
    or a directory, or its parent is missing.  Creates and truncates nothing."""
    if path is not None and os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    # the empty path has the empty parent, which would read as "."
    if path is not None and (not path or not os.path.isdir(os.path.dirname(path) or ".")):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _describe(outcome: Outcome) -> tuple[dict, str]:
    """A reversal outcome as its JSON object and its one-line text.

    The object is the kind, the class name in lower case, and the fields as
    text or integers.  The text is the kind, followed for a stuck, cycling or
    diverged reversal by its place or figures: `cycles (step 7, period 4, shift 1)`.
    """
    from .reversing import Stuck, Terminal

    kind = type(outcome).__name__.lower()
    data = {"kind": kind}
    if isinstance(outcome, Terminal):
        data.update(v_prime=str(outcome.v_prime), u_prime=str(outcome.u_prime))
        return data, kind
    if isinstance(outcome, Stuck):
        x, y = outcome.pair
        data.update(position=outcome.position, pair=[str(x), str(y)])
        return data, f"stuck @{outcome.position} on ({x}, {y})"
    data.update(outcome._asdict())  # integer fields only
    figures = ", ".join(f"{name} {value}" for name, value in data.items() if name != "kind")
    return data, f"{kind} ({figures})" if figures else kind


def _trace_json(trace: ReversalTrace) -> dict:
    intermediates = trace.words()
    next(intermediates)
    return {
        "side": trace.side,
        "start": str(trace.start),
        "steps": [
            {"position": s.position, "kind": "cancel" if s.rule is None else "relation",
             "rule": s.rule.label() if s.rule else None, "after": str(after)}
            for s, after in zip(trace.steps, intermediates)
        ],
        "outcome": _describe(trace.outcome)[0],
    }


def _print_trace(trace: ReversalTrace, limit: int) -> None:
    print(f"start: {trace.start}")
    intermediates = trace.words()
    next(intermediates)
    for i, (step, after) in enumerate(zip(trace.steps, intermediates), start=1):
        if i > limit:
            print(f"  ... {len(trace.steps) - limit} more steps")
            break
        what = "cancel" if step.rule is None else step.rule.label()
        print(f"  step {i}: {what} @{step.position} -> {after}")
    data, text = _describe(trace.outcome)
    print(f"outcome: {text}")
    if data["kind"] == "terminal":
        print(f"v' = {data['v_prime']}")
        print(f"u' = {data['u_prime']}")


def _outcome_exit(trace: ReversalTrace) -> int:
    return OK if trace.reached_terminal else INCONCLUSIVE


def _cmd_list(args) -> int:
    for name in catalog.names():
        print(name)
    return OK


# the characters at which str.splitlines, and so load_presentation, breaks a line
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _cmd_show(args) -> int:
    p = _load(args.presentation)
    # each line break escaped, so that the name stays on its comment line
    name = "".join(c.encode("unicode_escape").decode() if c in _LINE_BREAKS else c
                   for c in p.name)
    print(f"# presentation {name}\n# homogeneous: {'yes' if p.homogeneous else 'no'}")
    print(save_presentation(p), end="")
    return OK


def _cmd_reverse(args) -> int:
    from .reversing import left_reverse, right_reverse

    p, (word,) = _request(args, "word")
    trace = (left_reverse if args.left else right_reverse)(p, word, args.fuel)
    if args.format == "json":
        print(json.dumps(_trace_json(trace), indent=2))
    else:
        _print_trace(trace, args.limit)
    return _outcome_exit(trace)


def _cmd_quotient(args) -> int:
    from .reversing import reverse_quotient

    p, (u, v) = _request(args, "u", "v")
    side = "left" if args.left else "right"
    trace = reverse_quotient(p, u, v, side=side, fuel=args.fuel)
    if args.format == "json":
        print(json.dumps(_trace_json(trace), indent=2))
        return _outcome_exit(trace)
    out = trace.outcome
    data, text = _describe(out)
    if data["kind"] == "empty":
        print(f"equal: {u} and {v} name the same element ({trace.step_count} steps)")
    elif data["kind"] == "terminal":
        print(f"v' = {out.v_prime}")
        print(f"u' = {out.u_prime}")
        if side == "right":
            print(f"common multiple: {u} {out.v_prime} = {v} {out.u_prime}")
        else:
            print(f"common multiple: {out.v_prime} {u} = {out.u_prime} {v}")
    elif data["kind"] == "cycles":
        print(f"no common multiple reachable by reversing: the reversal {text}")
    else:
        print(text)
    return _outcome_exit(trace)


def _cmd_cube(args) -> int:
    from .completeness import cube_condition, cube_traces

    p, (u, v, w) = _request(args, "u", "v", "w")
    side = "left" if args.left else "right"
    res = cube_condition(p, u, v, w, side=side, fuel=args.fuel)
    if args.format == "json":
        first, second = cube_traces(p, u, v, w, side=side, fuel=args.fuel)
        data = {
            "triple": [str(u), str(v), str(w)],
            "side": side,
            "status": res.status,
            "reason": res.reason,
            "first": _trace_json(first),
            "second": _trace_json(second) if second else None,
        }
        print(json.dumps(data, indent=2))
    else:
        note = "" if res.status == "pass" else f" ({res.reason})"
        print(f"cube ({u}; {v}; {w}) {side}: {res.status}{note}")
    return {"pass": OK, "fail": FAIL}.get(res.status, INCONCLUSIVE)


def _cmd_certify(args) -> int:
    from .completeness import certify

    _check_output(args.output)
    p, _ = _request(args)
    cert = certify(p, t_bound=args.t_bound, fuel=args.fuel,
                   word_len=args.word_len)
    _emit(cert.to_json(), args.output)
    if cert.established:
        return OK
    # refusals carry a definite disqualification, only fuel leaves doubt
    return INCONCLUSIVE if cert.claim == "undetermined" else FAIL


def _cmd_derive(args) -> int:
    from .derivation import parse_script, script_presentation, verify_script

    text = _read(args.script)
    p = _load(script_presentation(text))
    script = parse_script(text, p)
    result = verify_script(p, script)
    if args.format == "json":
        data = {
            "presentation": script.presentation,
            "ok": result.ok,
            "steps": len(script.steps),
            "intermediates": [str(w) for w in result.intermediates],
            "failed_at": result.failed_at,
            "error": result.error,
        }
        print(json.dumps(data, indent=2))
        return OK if result.ok else FAIL
    for i, w in enumerate(result.intermediates):
        print(f"  {i}: {w}")
    if result.ok:
        print(f"verified: {script.start} = {script.expect} "
              f"in {len(script.steps)} steps")
        return OK
    where = "final word" if result.failed_at is None else f"step {result.failed_at + 1}"
    print(f"failed at {where}: {result.error}")
    return FAIL


def _cmd_oracle_class(args) -> int:
    from .oracle import equivalence_class

    p, (word,) = _request(args, "word")
    cls = equivalence_class(p, word, cap=args.cap)
    print(f"class size: {len(cls)}")
    for w in sorted(cls):
        print(str(w))
    return OK


def _cmd_oracle_equal(args) -> int:
    from .oracle import monoid_equal

    p, (u, v) = _request(args, "u", "v")
    if monoid_equal(p, u, v, cap=args.cap):
        print("equal")
        return OK
    print("not equal")
    return FAIL


def _cmd_oracle_scan(args) -> int:
    from .oracle import cancellation_scan

    _check_output(args.output)
    p, _ = _request(args)
    report = cancellation_scan(p, max_len=args.max_len, cap=args.cap)
    _emit(report.to_json(), args.output)
    return OK if report.cancellative else FAIL


def _cmd_render(args) -> int:
    from .grid import build_grid, grid_to_dot
    from .reversing import left_reverse, right_reverse

    dot = None if args.dot == "-" else args.dot
    _check_output(args.output if dot is None else dot)  # --dot and -o exclude each other
    p, (word,) = _request(args, "word")
    trace = (left_reverse if args.left else right_reverse)(p, word, args.fuel)
    kind = _describe(trace.outcome)[0]["kind"]
    if not trace.reached_terminal:
        print(f"monorev: no grid: reversal ended {kind}", file=sys.stderr)
        return _outcome_exit(trace)
    grid = build_grid(trace)
    if args.dot is not None:
        _emit(grid_to_dot(grid), dot)
    else:
        lines = [
            f"grid for {word} ({trace.side} reversing)",
            f"nodes: {len(grid.nodes)}",
            f"path edges: {len(grid.path_edges)}",
            f"completion edges: {len(grid.completion_edges)}",
            f"epsilon arcs: {len(grid.epsilon_arcs)}",
            f"cells: {len(grid.cells)}",
            f"outcome: {kind}",
        ]
        _emit("\n".join(lines), args.output)
    return _outcome_exit(trace)


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    parse.__name__ = "int"  # a non-integer still reads "invalid int value"
    return parse


_SOURCES = {"presentation": "catalog key (see 'monorev list') or presentation file",
            "script": "path to a script file"}


def _command(sub, name: str, help: str, func, *words: str, source="presentation",
             left=None, fuel=False, format=False, window=False, cap=None):
    """A subcommand of sub: its source positional (none when source is None),
    then the word positionals in order, then the shared options it asks for:
    --left with the help text left, --cap with the default cap."""
    s = sub.add_parser(name, help=help)
    if source is not None:
        s.add_argument(source, help=_SOURCES[source])
    for word in words:
        s.add_argument(word)
    if left is not None:
        s.add_argument("--left", action="store_true", help=left)
    if fuel:
        s.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                       help=f"reversal step budget (default {DEFAULT_FUEL})")
    if format:
        s.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")
    if window:
        s.add_argument("--window", type=_at_least(1), default=2,
                       help="index window for integer families (default 2)")
    if cap is not None:
        s.add_argument("--cap", type=_at_least(1), default=cap,
                       help=f"most words the oracle may enumerate (default {cap})")
    s.set_defaults(func=func)
    return s


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="monorev",
                     description="word reversing for positive monoid presentations")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "list", "list catalog presentations", _cmd_list, source=None)
    _command(sub, "show", "print a presentation", _cmd_show)

    s = _command(sub, "reverse", "reverse a signed word", _cmd_reverse, "word",
                 left="left reversing", fuel=True, format=True)
    s.add_argument("--limit", type=_at_least(0), default=1000,
                   help="print at most this many steps (default 1000)")

    _command(sub, "quotient", "reverse u^-1 v for positive words", _cmd_quotient, "u", "v",
             left="reverse u v^-1 instead", fuel=True, format=True)
    _command(sub, "cube", "cube condition on a triple of positive words", _cmd_cube,
             "u", "v", "w", left="left cube condition", fuel=True, format=True)

    s = _command(sub, "certify", "bounded cancellativity certificate", _cmd_certify, fuel=True)
    s.add_argument("--t-bound", type=_at_least(0), default=3, dest="t_bound",
                   help="integer-family spread bound (default 3)")
    s.add_argument("--word-len", type=_at_least(1), default=None, dest="word_len",
                   help="check word triples up to this length instead of "
                        "generator triples (required when not homogeneous)")
    s.add_argument("-o", "--output", default=None,
                   help="write to this file instead of stdout")

    _command(sub, "derive", "verify a derivation script", _cmd_derive, source="script", format=True)

    s = sub.add_parser("oracle", help="brute-force checks on finite windows")
    osub = s.add_subparsers(dest="oracle_command", required=True)
    _command(osub, "class", "equivalence class of a positive word", _cmd_oracle_class,
             "word", window=True, cap=1_000_000)
    _command(osub, "equal", "test equality of two positive words", _cmd_oracle_equal,
             "u", "v", window=True, cap=1_000_000)
    s = _command(osub, "scan", "search for cancellativity violations", _cmd_oracle_scan,
                 window=True, cap=500_000)
    s.add_argument("--max-len", type=_at_least(1), default=3, dest="max_len",
                   help="remainder length bound (default 3)")
    s.add_argument("-o", "--output", default=None,
                   help="write the report to this file instead of stdout")

    s = _command(sub, "render", "reversing grid of a word", _cmd_render, "word",
                 left="left reversing", fuel=True)
    out = s.add_mutually_exclusive_group()
    out.add_argument("--dot", metavar="PATH", default=None,
                     help="write the grid as DOT to PATH ('-' for stdout)")
    out.add_argument("-o", "--output", default=None,
                     help="write the text summary here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # stdout's reader has gone, so the outcome never reached it
        # the interpreter's last flush then writes to devnull, not to the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return INCONCLUSIVE
    except AmbiguousComplementError as exc:
        print(f"monorev: ambiguous complement: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except CapError as exc:
        print(f"monorev: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except OSError as exc:  # a missing file, a directory, an unreadable path
        print(f"monorev: {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"monorev: {message}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
