#!/usr/bin/env python3
"""Time the letter, lookup and oracle layers that bounded certificates lean on.

    python3 scripts/layer_bench.py --out BENCH.json
    python3 scripts/layer_bench.py --cold-start 11 --out BENCH.json \
        [--tree parent=OTHER_CHECKOUT --tree change=.]

Without --cold-start it times the cases of CASES, on the monorev in this
checkout's src/.  A case builds its inputs and returns its figures in
order, each as (name, unit, work, calls); work runs `calls` calls of the
layer, and the figure is its time per call in unit.  The cases are:

- letters: hashing, comparing and sorting 100,000 letters;
- complements: right_complement on e8:new over every pair of distinct
  generators of pair_scan_generators(e8:new), the pairs the reversing
  kernel looks up, a cold pass (empty cache) and then a warm one;
- pair_lookups: instances_for_pair on e8:new over every pair of those
  generators, both sides;
- triples: enumerate_word_triples(e8:new, 1, 6), the generator triples
  of a t_bound 6 sweep, per call;
- cubes: cube_condition on e8:new's t_bound 6 triples, both sides, per
  check, and then right_reverse with its full trace on the same triples'
  right first words u^-1 w w^-1 v, per call; a check of every triple,
  made with the case, warms the complement cache;
- fresh_e8: check_complemented(e8:new), and certify(e8:new) at t_bound 3
  and at t_bound 6, each on its own fresh presentation;
- windows: instantiate_window on a fresh d4:new at radius 2, per call,
  alone (window_ms) and then followed by the window's first rewrite
  table, the one the first oracle call builds (window_table_ms);
- scan: cancellation_scan at max_len 3 on a d4:new window of radius 2,
  so the call builds the window's rewrite table;
- equalities: monoid_equal on the two sides of the double_twist_s1
  fixture, per call: cold, each call on its own fresh window, and then
  warm, each call on the first of those windows;
- quotients: reverse_quotient on d4:new over all 1,296 pairs of the 36
  words of length 2 over QUOTIENT_TOKENS: first on a fresh presentation,
  without the warming pass, per pair (quotient_cold_us_per_pair, the
  first touches that solve the complements); then per kernel step, the
  1,152 pairs whose reversal ends (quotient_ending_us_per_step, 6,256
  steps) and the 144 proved to cycle (quotient_cycling_us_per_step, 3,936
  steps), after an untimed pass that warms the complement cache and sorts
  the pairs; and Presentation.parse on each pair's two texts, per word
  (parse_word_us).

A case's set-up runs before the clock and the reference runs: each repeat
builds the case, times the reference kernel of bench/reference.py, runs
every figure's work in order, and times the kernel again.  Once a case's
inputs are freed the garbage collector runs, so that the next case builds
on a settled heap.  The figures that share warm state (cold then warm,
checks then reversals) share a case for that reason.  Each figure's time
is scaled by that pair of reference runs, so it reads as it would on a
machine where the kernel takes REFERENCE_S.  Every figure is the median
of REPEATS runs, written beside its lower and upper quartiles (q1, q3;
statistics.quantiles, inclusive method; a single run is its own
quartiles), so that a change's figure can be read against the spread of
another tree's runs; the unscaled medians are written beside them.

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
alike.  Every figure is a median over the N runs, written beside its
quartiles as <figure>_q1 and <figure>_q3, as in the layer mode.
"""

from __future__ import annotations

import argparse
import gc
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
from monorev.reversing import Cycles, reverse_quotient, right_reverse  # noqa: E402
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
TRIPLE_CALLS = 20  # enumerate_word_triples calls per run
WINDOW_CALLS = 50  # windows built per run, with and without their rewrite table
QUOTIENT_TOKENS = ("s1", "s2", "s3", "s4", "t(0)", "t(1)")  # 36 words of length 2
UNITS = {"ms": 1e3, "us": 1e6}


def letters():
    """Hashing, comparing and sorting 100,000 random e8:new letters."""
    p = catalog.load(KEY)
    rng = random.Random(6)
    gens = p.alphabet.finite_generators() + [Generator("t", i) for i in range(-3, 4)]
    sample = [Letter(rng.choice(gens), rng.choice((1, -1))) for _ in range(LETTERS)]
    # equal values in distinct objects, so equality compares fields
    copies = [Letter(Generator(l.gen.family, l.gen.index), l.sign) for l in sample]
    return [("letter_hash_ms_per_100k", "ms", lambda: sum(map(hash, sample)), 1),
            ("letter_eq_ms_per_100k", "ms", lambda: sum(map(operator.eq, sample, copies)), 1),
            ("letter_sort_ms_per_100k", "ms", lambda: sorted(sample), 1)]


def complements():
    """right_complement over the scan pairs x != y, a cold pass then a warm one."""
    p = catalog.load(KEY)
    pairs = [(x, y) for x, y in itertools.product(pair_scan_generators(p), repeat=2) if x != y]

    def lookups():
        for x, y in pairs:
            right_complement(p, x, y)
    return [("right_complement_cold_us", "us", lookups, len(pairs)),
            ("right_complement_warm_us", "us", lookups, len(pairs))]


def pair_lookups():
    """instances_for_pair over the scan pairs, both sides.

    The lookup files nothing, so every call solves its pair; the pair
    index is built with the case.
    """
    p = catalog.load(KEY)
    pairs = list(itertools.product(pair_scan_generators(p), repeat=2))
    p.pair_index()

    def lookups():
        for side in ("right", "left"):
            for x, y in pairs:
                instances_for_pair(p, x, y, side)
    return [("pair_lookup_us", "us", lookups, 2 * len(pairs))]


def triples():
    """enumerate_word_triples(e8:new, 1, 6), the triples a t_bound 6 sweep checks."""
    p = catalog.load(KEY)

    def enumerations():
        for _ in range(TRIPLE_CALLS):
            enumerate_word_triples(p, 1, 6)
    return [("triples_ms", "ms", enumerations, TRIPLE_CALLS)]


def cubes():
    """Cube checks, both sides, then traced right reversals, on warm complements.

    Every cube check computes its verdict afresh: the mirror lemmas settle
    checks within a certify sweep only.
    """
    p = catalog.load(KEY)
    triples = enumerate_word_triples(p, 1, t_bound=6)
    firsts = [u.inverse() * w * w.inverse() * v for u, v, w in triples]

    def checks():
        for side in ("right", "left"):
            for u, v, w in triples:
                cube_condition(p, u, v, w, side=side)

    def reversals():
        for word in firsts:
            right_reverse(p, word)
    checks()  # fills the complement cache
    return [("cube_warm_us", "us", checks, 2 * len(triples)),
            ("reverse_warm_us", "us", reversals, len(firsts))]


def fresh_e8():
    """check_complemented and certify at t_bound 3 and 6, each on its own fresh e8:new."""
    p, q, r = (catalog.load(KEY) for _ in range(3))
    return [("check_complemented_ms", "ms", lambda: check_complemented(p), 1),
            ("certify_cold_ms", "ms", lambda: certify(q, t_bound=3), 1),
            ("certify6_cold_ms", "ms", lambda: certify(r, t_bound=6), 1)]


def windows():
    """instantiate_window(d4:new, 2), alone and then with the window's first rewrite table.

    Each call windows its own d4:new, loaded with the case.
    """
    alone, tabled = ([catalog.load("d4:new") for _ in range(WINDOW_CALLS)] for _ in range(2))

    def bare():
        for p in alone:
            instantiate_window(p, 2)

    def with_table():
        for p in tabled:
            oracle._table(instantiate_window(p, 2))
    return [("window_ms", "ms", bare, WINDOW_CALLS),
            ("window_table_ms", "ms", with_table, WINDOW_CALLS)]


def scan():
    """cancellation_scan at max_len 3 on a d4:new window of radius 2 built with the case."""
    w = instantiate_window(catalog.load("d4:new"), 2)
    return [("cancellation_scan_ms", "ms", lambda: cancellation_scan(w, max_len=3), 1)]


def equalities():
    """monoid_equal on the double_twist_s1 sides, cold then warm.

    A cold call is the first on its window, so it builds the rewrite
    table; a warm call finds the table built.
    """
    d4 = catalog.load("d4:new")
    text = (ROOT / "tests" / "fixtures" / "double_twist_s1.script").read_text(encoding="utf-8")
    script = parse_script(text, d4)
    u, v = script.start, script.expect
    windows = [instantiate_window(d4, 2) for _ in range(EQUAL_CALLS)]

    def cold():
        for w in windows:
            monoid_equal(w, u, v)

    def warm():
        for _ in range(EQUAL_CALLS):
            monoid_equal(windows[0], u, v)
    return [("monoid_equal_cold_ms", "ms", cold, EQUAL_CALLS),
            ("monoid_equal_warm_ms", "ms", warm, EQUAL_CALLS)]


def quotients():
    """reverse_quotient on d4:new over every pair of two-letter words, and parsing them.

    An untimed pass warms the complement cache of one d4:new and sorts the
    pairs into those whose reversal ends and those proved to cycle.  The
    first touches run on another, loaded with the case and left cold.
    """
    p, cold = catalog.load("d4:new"), catalog.load("d4:new")
    words = [f"{a} {b}" for a in QUOTIENT_TOKENS for b in QUOTIENT_TOKENS]
    texts = list(itertools.product(words, repeat=2))
    pairs = [(p.parse(u), p.parse(v)) for u, v in texts]
    ending, cycling = [], []
    for u, v in pairs:
        trace = reverse_quotient(p, u, v)
        (cycling if isinstance(trace.outcome, Cycles) else ending).append((u, v, trace.step_count))

    def first_touches():
        for u, v in pairs:
            reverse_quotient(cold, u, v)

    def reversals(group):
        for u, v, _ in group:
            reverse_quotient(p, u, v)

    def parses():
        for u, v in texts:
            p.parse(u)
            p.parse(v)
    return [("quotient_cold_us_per_pair", "us", first_touches, len(pairs)),
            ("quotient_ending_us_per_step", "us", lambda: reversals(ending),
             sum(steps for *_, steps in ending)),
            ("quotient_cycling_us_per_step", "us", lambda: reversals(cycling),
             sum(steps for *_, steps in cycling)),
            ("parse_word_us", "us", parses, 2 * len(texts))]


CASES = (letters, complements, pair_lookups, triples, cubes, fresh_e8, windows, scan, equalities,
         quotients)


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of values: statistics.quantiles, inclusive method.

    A single value is its own quartiles.
    """
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def time_case(case) -> list[tuple[str, float, float]]:
    """One run of a case: (name, time per call in its unit, the same scaled) per figure.

    The case is built before the first reference run.  Its inputs are
    freed on return and collected, before the next case builds its own.
    """
    figures = case()
    timed = []
    before = reference.time_reference()
    for name, unit, work, calls in figures:
        t0 = time.perf_counter()
        work()
        timed.append((name, (time.perf_counter() - t0) / calls * UNITS[unit]))
    after = reference.time_reference()
    del figures, work
    gc.collect()
    return [(name, value, reference.scaled(value, before, after)) for name, value in timed]


def run() -> dict:
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        for case in CASES:
            for name, value, scaled_value in time_case(case):
                raw.setdefault(name, []).append(value)
                scaled.setdefault(name, []).append(scaled_value)
    q1, median, q3 = ({name: round(quartiles(values)[i], 3) for name, values in scaled.items()}
                      for i in range(3))
    return {
        "script": "scripts/layer_bench.py",
        "presentation": KEY,
        "python": platform.python_version(),
        "repeats": REPEATS,
        "reference_s": reference.REFERENCE_S,
        "figures": median,
        "q1": q1,
        "q3": q3,
        "unscaled": {name: round(quartiles(values)[1], 3) for name, values in raw.items()},
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
            q1, median, q3 = quartiles(values)
            figures[figure] = round(median * 1e3, 2)
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
            print(f"{name:28} {value:10.3f}  [{result['q1'][name]:.3f}, {result['q3'][name]:.3f}]")
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
