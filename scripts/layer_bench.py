#!/usr/bin/env python3
"""Time the letter, lookup and oracle layers that bounded certificates lean on.

    python3 scripts/layer_bench.py --out BENCH.json
    python3 scripts/layer_bench.py --cold-start 11 --out BENCH.json \
        [--tree parent=OTHER_CHECKOUT --tree change=.]

Without --cold-start it measures, on the monorev in this checkout's src/:

- hashing, comparing and sorting 100,000 letters;
- right_complement on e8:new, cold (empty cache) and warm, per call, over
  every pair of distinct generators of pair_scan_generators(e8:new), the
  pairs the reversing kernel looks up;
- instances_for_pair on e8:new, per call, over every pair of those
  generators, both sides;
- check_complemented(e8:new) on a fresh presentation;
- certify(e8:new) at t_bound 3 and at t_bound 6, each on a fresh presentation;
- cube_condition on e8:new's t_bound 6 triples, both sides, per check, and
  right_reverse with its full trace on the same triples' right first words
  u^-1 w w^-1 v, per call, both with a warm complement cache;
- instantiate_window on a fresh d4:new at radius 2, per call, alone
  (window_ms) and followed by the window's first rewrite table, the one
  the first oracle call builds (window_table_ms);
- cancellation_scan on the d4:new window of radius 2 at max_len 3, a fresh
  call each repeat on a window built before the clock starts, so each call
  builds the window's rewrite table;
- monoid_equal on the two sides of the double_twist_s1 fixture, on the
  same window, per call: cold, each call on a fresh window built before
  the clock starts, and warm, each call on one window after a first call.

Each figure is the median of REPEATS runs.  Each run is scaled by the
reference kernel of bench/reference.py, timed just before and just after
it, so the figure reads as it would on a machine where that kernel takes
REFERENCE_S; the raw medians are written beside the scaled ones.

With --cold-start N it measures instead the commands of COLD_COMMANDS from a
cold start, in N fresh interpreters per command: each times `import
monorev.cli` and then `monorev.cli.main(argv)`, output discarded, with the
reference kernel timed before and after in the same process; the parent
process also times the whole child, interpreter start-up included
(`process_ms`, unscaled).  Each tree named by --tree (a checkout; by default
this one) is copied without bytecode and measured in two modes: "compile",
with PYTHONDONTWRITEBYTECODE=1, so that every run compiles monorev's
sources, and "cached", with bytecode written once under a
PYTHONPYCACHEPREFIX in a temporary directory and read back.  The runs go round the commands, trees
and modes in turn, so that a drift in the machine's speed reaches each
alike.  Every figure is a median over the N runs, written beside its lower
and upper quartiles as <figure>_q1 and <figure>_q3 (statistics.quantiles,
inclusive method; a single run is its own quartiles), so that a change's
figure can be read against the spread of another tree's runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import operator
import platform
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from monorev import catalog, oracle  # noqa: E402
from monorev.completeness import certify, cube_condition, enumerate_word_triples  # noqa: E402
from monorev.derivation import parse_script  # noqa: E402
from monorev.oracle import cancellation_scan, monoid_equal  # noqa: E402
from monorev.presentation import (  # noqa: E402
    check_complemented,
    instances_for_pair,
    instantiate_window,
    pair_scan_generators,
    right_complement,
)
from monorev.reversing import right_reverse  # noqa: E402
from monorev.words import Generator, Letter  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_reference", ROOT / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

REPEATS = 5
COLD_COMMANDS = {
    "list": ["list"],
    "show": ["show", "d4:new"],
    "reverse": ["reverse", "d4:new", "t(2)^-1 s3 s3"],
    "certify": ["certify", "e8:new"],
    "oracle_scan": ["oracle", "scan", "d4:new"],
    "render": ["render", "d4:new", "t(2)^-1 s3 s3"],
}
# A cold-start child: argv[1] is the src directory, argv[2] the command as JSON.
COLD_CHILD = """\
import contextlib, io, json, sys, time
sys.path[:0] = [sys.argv[1], %r]
from reference import time_reference
argv = json.loads(sys.argv[2])
before = time_reference()
t0 = time.perf_counter()
import monorev.cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = monorev.cli.main(argv)
t2 = time.perf_counter()
print(json.dumps([code, t1 - t0, t2 - t1, before, time_reference()]))
""" % str(ROOT / "bench")
LETTERS = 100_000
KEY = "e8:new"
EQUAL_CALLS = 20  # monoid_equal calls per run, cold and warm
WINDOW_CALLS = 50  # windows built per run, with and without their rewrite table


def letters_bench():
    p = catalog.load(KEY)
    rng = random.Random(6)
    gens = p.alphabet.finite_generators() + [Generator("t", i) for i in range(-3, 4)]
    letters = [Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(LETTERS)]
    # equal values in distinct objects, so equality compares fields
    copies = [Letter(Generator(l.gen.family, l.gen.index), l.sign) for l in letters]
    return {
        "letter_hash_ms_per_100k": lambda: sum(map(hash, letters)),
        "letter_eq_ms_per_100k": lambda: sum(map(operator.eq, letters, copies)),
        "letter_sort_ms_per_100k": lambda: sorted(letters),
    }


def complement_runs():
    """A cold pass and a warm pass of right_complement over the scan pairs x != y, per call."""
    p = catalog.load(KEY)
    pairs = [(x, y) for x, y in itertools.product(pair_scan_generators(p), repeat=2) if x != y]
    timings = {}
    for phase in ("cold", "warm"):
        t0 = time.perf_counter()
        for x, y in pairs:
            right_complement(p, x, y)
        timings[phase] = (time.perf_counter() - t0) / len(pairs)
    return timings


def pair_lookup_run() -> float:
    """instances_for_pair over the scan pairs, both sides, per call.

    The lookup files nothing, so every call solves its pair; the pair
    index is built before the clock starts.
    """
    p = catalog.load(KEY)
    pairs = list(itertools.product(pair_scan_generators(p), repeat=2))
    p.pair_index()
    t0 = time.perf_counter()
    for side in ("right", "left"):
        for x, y in pairs:
            instances_for_pair(p, x, y, side)
    return (time.perf_counter() - t0) / (2 * len(pairs))


def cube_runs():
    """Cube checks per check and traced right reversals per call, on warm complements.

    Every cube check computes its verdict afresh, on both sides: the
    mirror lemmas settle checks within a certify sweep only.
    """
    p = catalog.load(KEY)
    triples = enumerate_word_triples(p, 1, t_bound=6)
    firsts = [u.inverse() * w * w.inverse() * v for u, v, w in triples]

    def cubes():
        for side in ("right", "left"):
            for u, v, w in triples:
                cube_condition(p, u, v, w, side=side)

    cubes()  # fills the complement cache
    timings = {}
    t0 = time.perf_counter()
    cubes()
    timings["cube_warm_us"] = (time.perf_counter() - t0) / (2 * len(triples))
    t0 = time.perf_counter()
    for word in firsts:
        right_reverse(p, word)
    timings["reverse_warm_us"] = (time.perf_counter() - t0) / len(firsts)
    return timings


def monoid_equal_runs():
    """monoid_equal on the double_twist_s1 sides, per call, cold and warm.

    A cold call is the first on its window, so it builds the rewrite
    table; a warm call finds the table built.
    """
    d4 = catalog.load("d4:new")
    text = (ROOT / "tests" / "fixtures" / "double_twist_s1.script").read_text(encoding="utf-8")
    script = parse_script(text, d4)
    u, v = script.start, script.expect
    windows = [instantiate_window(d4, 2) for _ in range(EQUAL_CALLS)]
    timings = {}
    t0 = time.perf_counter()
    for w in windows:
        monoid_equal(w, u, v)
    timings["monoid_equal_cold_ms"] = (time.perf_counter() - t0) / EQUAL_CALLS
    w = windows[0]
    t0 = time.perf_counter()
    for _ in range(EQUAL_CALLS):
        monoid_equal(w, u, v)
    timings["monoid_equal_warm_ms"] = (time.perf_counter() - t0) / EQUAL_CALLS
    return timings


def window_runs():
    """instantiate_window(d4:new, 2) per call, without and with the window's first rewrite table.

    Each call windows its own d4:new, loaded before the clock starts.
    """
    timings = {}
    for name, table in (("window_ms", False), ("window_table_ms", True)):
        fresh = [catalog.load("d4:new") for _ in range(WINDOW_CALLS)]
        t0 = time.perf_counter()
        for p in fresh:
            w = instantiate_window(p, 2)
            if table:
                oracle._table(w)
        timings[name] = (time.perf_counter() - t0) / WINDOW_CALLS
    return timings


def measure(fn) -> tuple[float, float]:
    """One run of fn: (seconds, seconds scaled by the reference kernel)."""
    before = reference.time_reference()
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    return seconds, reference.scaled(seconds, before, reference.time_reference())


def run() -> dict:
    factor: dict[str, float] = {}  # seconds to the unit the figure's name ends in
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}

    def record(name: str, to_unit: float, seconds: float, scaled_s: float) -> None:
        factor[name] = to_unit
        raw.setdefault(name, []).append(seconds)
        scaled.setdefault(name, []).append(scaled_s)

    for _ in range(REPEATS):
        for name, fn in letters_bench().items():
            record(name, 1e3, *measure(fn))
        before = reference.time_reference()
        per_call = complement_runs()
        after = reference.time_reference()
        for phase, seconds in per_call.items():
            record(f"right_complement_{phase}_us", 1e6, seconds,
                   reference.scaled(seconds, before, after))
        before = reference.time_reference()
        seconds = pair_lookup_run()
        after = reference.time_reference()
        record("pair_lookup_us", 1e6, seconds, reference.scaled(seconds, before, after))
        before = reference.time_reference()
        per_call = cube_runs()
        after = reference.time_reference()
        for name, seconds in per_call.items():
            record(name, 1e6, seconds, reference.scaled(seconds, before, after))
        p = catalog.load(KEY)
        record("check_complemented_ms", 1e3, *measure(lambda: check_complemented(p)))
        p = catalog.load(KEY)
        record("certify_cold_ms", 1e3, *measure(lambda: certify(p, t_bound=3)))
        p = catalog.load(KEY)
        record("certify6_cold_ms", 1e3, *measure(lambda: certify(p, t_bound=6)))
        before = reference.time_reference()
        per_call = window_runs()
        after = reference.time_reference()
        for name, seconds in per_call.items():
            record(name, 1e3, seconds, reference.scaled(seconds, before, after))
        w = instantiate_window(catalog.load("d4:new"), 2)
        record("cancellation_scan_ms", 1e3, *measure(lambda: cancellation_scan(w, max_len=3)))
        before = reference.time_reference()
        per_call = monoid_equal_runs()
        after = reference.time_reference()
        for name, seconds in per_call.items():
            record(name, 1e3, seconds, reference.scaled(seconds, before, after))
    return {
        "script": "scripts/layer_bench.py",
        "presentation": KEY,
        "python": platform.python_version(),
        "repeats": REPEATS,
        "reference_s": reference.REFERENCE_S,
        "figures": {name: round(statistics.median(v) * factor[name], 3)
                    for name, v in scaled.items()},
        "unscaled": {name: round(statistics.median(v) * factor[name], 3)
                     for name, v in raw.items()},
    }


def cold_start(trees: dict[str, Path], runs: int, scratch: Path) -> dict:
    """Each command of COLD_COMMANDS from a cold start, per tree and bytecode mode."""
    srcs = {}
    for name, tree in trees.items():
        srcs[name] = scratch / "trees" / name / "src"
        shutil.copytree(tree / "src", srcs[name],
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}
    envs = {(name, mode): {**base, "PYTHONDONTWRITEBYTECODE": "1"} if mode == "compile"
            else {**base, "PYTHONPYCACHEPREFIX": str(scratch / "pycache" / name)}
            for name in trees for mode in ("compile", "cached")}

    def child(name: str, mode: str, argv: list[str]) -> tuple[float, ...]:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", COLD_CHILD, str(srcs[name]),
                               json.dumps(argv)], env=envs[name, mode], capture_output=True,
                              text=True, check=True, timeout=120)
        process = time.perf_counter() - t0
        code, load, work, before, after = json.loads(done.stdout.splitlines()[-1])
        if code != 0:
            raise RuntimeError(f"{name}: monorev {' '.join(argv)} exited {code}")
        return load, work, before, after, process

    for name in trees:  # writes the cached mode's bytecode, untimed
        for argv in COLD_COMMANDS.values():
            child(name, "cached", argv)
    samples: dict[tuple[str, str, str], list[tuple[float, ...]]] = {}
    order = list(trees)
    for i in range(runs):
        for command, argv in COLD_COMMANDS.items():
            for name in order[i % len(order):] + order[:i % len(order)]:
                for mode in ("compile", "cached"):
                    samples.setdefault((name, mode, command), []).append(child(name, mode, argv))
    result: dict = {name: {"compile": {}, "cached": {}} for name in trees}
    for (name, mode, command), rows in samples.items():
        seconds = {
            "import_ms": [reference.scaled(load, before, after)
                          for load, _, before, after, _ in rows],
            "main_ms": [reference.scaled(work, before, after)
                        for _, work, before, after, _ in rows],
            "total_ms": [reference.scaled(load + work, before, after)
                         for load, work, before, after, _ in rows],
            "process_ms": [process for *_, process in rows],  # unscaled
        }
        figures = result[name][mode][command] = {}
        for figure, values in seconds.items():
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            figures[figure] = round(statistics.median(values) * 1e3, 2)
            figures[f"{figure}_q1"] = round(q1 * 1e3, 2)
            figures[f"{figure}_q3"] = round(q3 * 1e3, 2)
    return {
        "script": "scripts/layer_bench.py --cold-start",
        "python": platform.python_version(),
        "runs": runs,
        "reference_s": reference.REFERENCE_S,
        "commands": {command: "monorev " + " ".join(argv)
                     for command, argv in COLD_COMMANDS.items()},
        "trees": result,
    }


def _tree(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    return name, Path(path).resolve()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--cold-start", type=int, default=0, metavar="N", dest="cold_start",
                    help="time the CLI from a cold start in N fresh interpreters per "
                         "command instead of the layers")
    ap.add_argument("--tree", type=_tree, action="append", default=[], metavar="NAME=PATH",
                    help="a checkout to time from a cold start (repeatable; "
                         "default this one)")
    args = ap.parse_args(argv)
    if args.cold_start < 1:
        result = run()
        for name, value in result["figures"].items():
            print(f"{name:28} {value:10.3f}")
    else:
        trees = dict(args.tree) or {"this": ROOT}
        with tempfile.TemporaryDirectory() as scratch:
            result = cold_start(trees, args.cold_start, Path(scratch))
        for name, modes in result["trees"].items():
            for mode, commands in modes.items():
                for command, figures in commands.items():
                    print(f"{name:8} {mode:8} {command:12} " + "  ".join(
                        f"{k} {v:8.2f}" for k, v in figures.items()
                        if not k.endswith(("_q1", "_q3"))))
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
