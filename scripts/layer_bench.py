#!/usr/bin/env python3
"""Time the letter, lookup and oracle layers, and the CLI from a cold start.

    python3 scripts/layer_bench.py --out BENCH.json [--runs N] \
        [--tree parent=OTHER_CHECKOUT --tree change=.]
    python3 scripts/layer_bench.py --cold-start 11 --out BENCH.json [--tree ...]

Every sample is one fresh interpreter.  Each tree named by --tree (a
checkout; by default this one) is copied without bytecode, and a child
imports monorev from that copy's src/ and the reference kernel from this
checkout's bench/.  The children go round the jobs, trees and modes in
turn, so that a drift in the machine's speed reaches each alike, and they
keep the parent's environment, random hash seed included, without
PYTHONPATH and the two bytecode variables below.  A child that fails
stops the run with a RuntimeError that carries the tail of its stderr.
Two trees with one name are a usage error.

Without --cold-start the jobs are the cases of CASES, --runs samples
each (REPEATS by default).  A child loads this file from this checkout's
scripts/, looks its case up by name and runs time_case on it.  A case
builds its inputs and returns its figures in order, each as (name,
unit, work, calls); work runs `calls` calls of the layer, and the figure
is its time per call in unit.  The case is built before the clock:
time_case times the reference kernel, runs every figure's work in order,
and times the kernel again.  The figures that share warm state (cold
then warm, checks then reversals) share a case, and so a child.  The
cases are:

- letters: hashing, comparing and sorting 100,000 letters;
- complements: right_complement on e8:new over every pair of distinct
  generators of pair_scan_generators(e8:new), the pairs the reversing
  kernel looks up, a cold pass (empty cache) and then a warm one.  The
  generators are the 12 letters s1..s8 and t(0)..t(3); they were 13,
  with t(-2)..t(2), while the scan used a fixed index window, so the
  per-call figures of the two pools are not comparable;
- pair_lookups: instances_for_pair on e8:new over every pair of those
  12 generators, both sides, not comparable with the 13-letter pool
  either;
- triples: enumerate_word_triples(e8:new, 1, 6), the generator triples
  of a t_bound 6 sweep, per call;
- cubes: cube_condition on e8:new's t_bound 6 triples, both sides, per
  check, and then right_reverse with its full trace on the same triples'
  right first words u^-1 w w^-1 v, per call; a check of every triple,
  made with the case, warms the complement cache;
- fresh_e8: check_complemented(e8:new), and certify(e8:new) at t_bound 3
  and at t_bound 6, each on its own fresh presentation, then
  Presentation.mirror_symmetric on a fresh e8:new, per call (it keeps
  nothing, so every call builds its forms), and certify on a fresh
  e8:yamada, which it refuses (certify_refused_ms);
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

With --cold-start N the jobs are the commands of COLD_COMMANDS, N samples
each: a child times `import monorev.cli` and then `monorev.cli.main(argv)`,
output discarded, between two timings of the reference kernel, and the
parent times the whole child, interpreter start-up included (process_ms,
not scaled).  Commands run in two modes: "compile", with
PYTHONDONTWRITEBYTECODE=1, so that every run compiles monorev's sources,
and "cached".  Layer cases run in the cached mode only.  In the cached
mode bytecode is written under a PYTHONPYCACHEPREFIX in a temporary
directory, once per tree by an untimed child that runs every_module, and
read back.

Each figure a child reports is scaled by its pair of reference runs, so it
reads as it would on a machine where the kernel takes REFERENCE_S.  The
JSON holds, per tree, mode and job, each figure's median, its quartiles as
<figure>_q1 and <figure>_q3 (statistics.quantiles, inclusive method; a
single run is its own quartiles), so that a change's figure can be read
against the spread of another tree's runs, and the median of its unscaled
values as <figure>_unscaled.

A run goes round every job and tree once per sample, so with two trees
each round holds one sample of each, taken close together.  For two
trees the JSON's `lower` also counts, per mode, job and figure, the
rounds in which the second tree's scaled value read lower than the
first's, the pairwise count that a claim of a move rests on, and the
table ends with those counts.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import operator
import os
import pkgutil
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # a child imports monorev from the tree it times
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
# A child: argv[1] is the tree's src directory, argv[2] the job as JSON, ["command", argv]
# or ["case", name].  It prints [figures, before, after] as JSON: each figure unscaled, and
# the reference kernel's seconds before and after them.
CHILD = """\
import contextlib, io, json, sys, time
sys.path[:0] = [sys.argv[1], %r]
from reference import time_reference
kind, job = json.loads(sys.argv[2])
if kind == "command":
    before = time_reference()
    t0 = time.perf_counter()
    import monorev.cli
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = monorev.cli.main(job)
    t2 = time.perf_counter()
    if code != 0:
        sys.exit(f"monorev {' '.join(job)} exited {code}")
    figures = {"import_ms": (t1 - t0) * 1e3, "main_ms": (t2 - t1) * 1e3,
               "total_ms": (t2 - t0) * 1e3}
    after = time_reference()
else:
    import importlib.util
    spec = importlib.util.spec_from_file_location("layer_bench", %r)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    figures, before, after = bench.time_case(getattr(bench, job))
print(json.dumps([figures, before, after]))
""" % (str(ROOT / "bench"), str(Path(__file__).resolve()))
LETTERS = 100_000
KEY = "e8:new"
EQUAL_CALLS = 20  # monoid_equal calls per run, cold and warm
TRIPLE_CALLS = 20  # enumerate_word_triples calls per run
WINDOW_CALLS = 50  # windows built per run, with and without their rewrite table
MIRROR_CALLS = 50  # mirror_symmetric calls per run
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
    """right_complement over the pairs x != y of e8:new's 12 scan generators, cold then warm."""
    p = catalog.load(KEY)
    pairs = [(x, y) for x, y in itertools.product(pair_scan_generators(p), repeat=2) if x != y]

    def lookups():
        for x, y in pairs:
            right_complement(p, x, y)
    return [("right_complement_cold_us", "us", lookups, len(pairs)),
            ("right_complement_warm_us", "us", lookups, len(pairs))]


def pair_lookups():
    """instances_for_pair over the pairs of e8:new's 12 scan generators, both sides.

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
    """check_complemented, certify at t_bound 3 and 6, mirror_symmetric: each on a fresh
    e8:new; then certify on a fresh e8:yamada, a refusal."""
    p, q, r, m = (catalog.load(KEY) for _ in range(4))
    refused = catalog.load("e8:yamada")

    def mirrors():
        for _ in range(MIRROR_CALLS):
            m.mirror_symmetric()
    return [("check_complemented_ms", "ms", lambda: check_complemented(p), 1),
            ("certify_cold_ms", "ms", lambda: certify(q, t_bound=3), 1),
            ("certify6_cold_ms", "ms", lambda: certify(r, t_bound=6), 1),
            ("mirror_symmetric_us", "us", mirrors, MIRROR_CALLS),
            ("certify_refused_ms", "ms", lambda: certify(refused), 1)]


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


def every_module():
    """No figures: the child that runs it imports every monorev module, writing its bytecode."""
    import monorev
    for module in pkgutil.iter_modules(monorev.__path__, "monorev."):
        importlib.import_module(module.name)
    return []


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of values: statistics.quantiles, inclusive method.

    A single value is its own quartiles.
    """
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def time_case(case) -> tuple[dict[str, float], float, float]:
    """One run of a case: its figures, each a time per call in its unit, and the
    reference kernel's seconds before and after them.

    The case is built before the first reference run.
    """
    figures = case()
    timed = {}
    before = reference.time_reference()
    for name, unit, work, calls in figures:
        t0 = time.perf_counter()
        work()
        timed[name] = (time.perf_counter() - t0) / calls * UNITS[unit]
    return timed, before, reference.time_reference()


def measure(trees: dict[str, Path], jobs: dict[str, list], modes: tuple[str, ...], runs: int,
            scratch: Path) -> tuple[dict, dict]:
    """Each job in `runs` fresh interpreters per tree and mode.

    Returns tree -> mode -> job -> figures, and for two trees mode -> job ->
    figure -> the rounds in which the second tree read lower (else {}).
    """
    srcs = {}
    for name, tree in trees.items():
        srcs[name] = scratch / "trees" / name / "src"
        shutil.copytree(tree / "src", srcs[name],
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}
    envs = {(name, mode): {**base, "PYTHONDONTWRITEBYTECODE": "1"} if mode == "compile"
            else {**base, "PYTHONPYCACHEPREFIX": str(scratch / "pycache" / name)}
            for name in trees for mode in modes}

    def child(name: str, mode: str, job: list) -> dict[str, tuple[float, float]]:
        """One sample: (scaled, unscaled) per figure."""
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", CHILD, str(srcs[name]), json.dumps(job)],
                              env=envs[name, mode], capture_output=True, text=True, timeout=120)
        process = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"the child for {job} on tree {name!r} exited "
                               f"{done.returncode}:\n" + "\n".join(done.stderr.splitlines()[-20:]))
        figures, before, after = json.loads(done.stdout.splitlines()[-1])
        values = {figure: (reference.scaled(value, before, after), value)
                  for figure, value in figures.items()}
        if job[0] == "command":
            values["process_ms"] = (process * 1e3,) * 2
        return values

    for name in trees:  # writes the cached mode's bytecode, untimed
        child(name, "cached", ["case", "every_module"])
    samples: dict[tuple[str, str, str], list[dict]] = {}
    order = list(trees)
    for i in range(runs):
        for job, spec in jobs.items():
            for name in order[i % len(order):] + order[:i % len(order)]:
                for mode in modes:
                    samples.setdefault((name, mode, job), []).append(child(name, mode, spec))
    result: dict = {}
    for (name, mode, job), rows in samples.items():
        figures = result.setdefault(name, {}).setdefault(mode, {})[job] = {}
        for figure in rows[0]:
            q1, median, q3 = quartiles([row[figure][0] for row in rows])
            figures.update({figure: round(median, 3), f"{figure}_q1": round(q1, 3),
                            f"{figure}_q3": round(q3, 3), f"{figure}_unscaled":
                            round(quartiles([row[figure][1] for row in rows])[1], 3)})
    lower: dict = {}
    if len(order) == 2:
        first, second = order
        for (name, mode, job), rows in samples.items():
            if name == second:
                lower.setdefault(mode, {})[job] = {
                    figure: sum(b[figure][0] < a[figure][0]
                                for a, b in zip(samples[first, mode, job], rows))
                    for figure in rows[0]}
    return result, lower


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
    ap.add_argument("--runs", type=int, metavar="N",
                    help=f"samples per layer case (default {REPEATS})")
    ap.add_argument("--tree", type=_tree, action="append", default=[], metavar="NAME=PATH",
                    help="a checkout to time (repeatable; default this one)")
    args = ap.parse_args(argv)
    names = [name for name, _ in args.tree]
    twice = next((name for name in names if names.count(name) > 1), None)
    if twice is not None:  # dict(args.tree) would keep only the last
        ap.error(f"--tree name {twice!r} is given twice")
    if args.runs is not None and (args.runs < 1 or args.cold_start > 0):
        ap.error("--runs must be >= 1" if args.runs < 1 else
                 "--runs counts layer samples; --cold-start N sets the command samples")
    if args.cold_start > 0:
        jobs = {command: ["command", argv] for command, argv in COLD_COMMANDS.items()}
        modes, runs = ("compile", "cached"), args.cold_start
    else:
        jobs = {case.__name__: ["case", case.__name__] for case in CASES}
        modes, runs = ("cached",), REPEATS if args.runs is None else args.runs
    with tempfile.TemporaryDirectory() as scratch:
        trees, lower = measure(dict(args.tree) or {"this": ROOT}, jobs, modes, runs,
                               Path(scratch))
    for name, by_mode in trees.items():
        for mode, by_job in by_mode.items():
            for job, figures in by_job.items():
                for figure in figures:
                    if not figure.endswith(("_q1", "_q3", "_unscaled")):
                        print(f"{name:8} {mode:8} {job:12} {figure:28} {figures[figure]:10.3f}  "
                              f"[{figures[figure + '_q1']:.3f}, {figures[figure + '_q3']:.3f}]")
    if lower:
        first, second = trees
        print(f"rounds of {runs} in which {second} read lower than {first}:")
        for mode, by_job in lower.items():
            for job, counts in by_job.items():
                for figure, count in counts.items():
                    print(f"{mode:8} {job:12} {figure:28} {count:4d} of {runs}")
    result = {
        "script": "scripts/layer_bench.py" + (" --cold-start" if args.cold_start > 0 else ""),
        "python": platform.python_version(),
        "runs": runs,
        "reference_s": reference.REFERENCE_S,
        "jobs": jobs,
        "trees": trees,
    }
    if lower:
        result["lower"] = {"tree": second, "than": first, "rounds": lower}
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
