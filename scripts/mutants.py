#!/usr/bin/env python3
"""Apply the committed mutants to copies of this checkout and check that tests kill them.

    python3 scripts/mutants.py [NAME ...]

Each entry of MUTANTS names a file, a piece of its text, the text that
replaces it and the tests that must fail once it does.  The entries are the
lines that soundness rests on.  For each entry, or for each one named on the
command line, the script copies this checkout without its .git directory and
caches into a temporary directory, makes the one replacement there, and runs
the named tests on the copy with pytest, hypothesis at a fixed seed.  A mutant
is killed when the run reports a failing test, and survives when the named
tests pass.  A run that fails for another reason (a test id that names no
test, a collection error) kills nothing and is reported as an error.  The
named tests are first run on this checkout as it is, where they must pass.

Prints one line per mutant and exits 0 when every mutant was killed, 1
otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KILLED = 1  # pytest's exit status when some test failed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the checkout


MUTANTS = (
    Mutant("shifted-cycle-guard", "src/monorev/reversing.py",
           "if k is not None and (k == 0 or p.translation_invariant()):",
           "if k is not None:",
           ("tests/test_reversing.py::test_shifted_cycle_needs_translation_invariance",)),
    Mutant("first-letter-reject", "src/monorev/reversing.py",
           "now, then = done[pos - kept_done + low_done], saved_done[low_done]",
           "now, then = done[pos - kept_done + low_done], saved_done[kept_done - 1]",
           ("tests/test_acceptance.py::test_cycles_are_proved_at_the_pinned_step",)),
    Mutant("kernel-cancel", "src/monorev/reversing.py",
           "if x != y:",
           "if x.family != y.family:",
           ("tests/test_acceptance.py::test_cycle_proofs_sound",)),
    Mutant("kept-unread-length", "src/monorev/reversing.py",
           "kept_done, kept_todo = pos, rest",
           "kept_done = pos",
           ("tests/test_acceptance.py::test_cycle_proofs_sound",)),
    Mutant("left-sweep-reuse", "src/monorev/completeness.py",
           "if sweep is None or failures or cycling or fuel_outs or not p.mirror_symmetric():",
           "if sweep is None or not p.mirror_symmetric():",
           ("tests/test_completeness.py::test_word_sweep_matches_the_unmirrored_certificate",
            "tests/test_completeness.py::"
            "test_left_sweep_computes_its_checks_after_a_right_non_pass")),
    Mutant("pinned-letter-refusal", "src/monorev/completeness.py",
           "if pinned is not None:",
           "if False:",
           ("tests/test_completeness.py::test_certify_refuses_a_pinned_index",
            "tests/test_cli.py::test_certify_pinned_index_refused")),
    Mutant("complemented-sides", "src/monorev/completeness.py",
           'sides = [side for side, conflicts in (("right", right), ("left", left)) if not conflicts]',
           'sides = [side for side, conflicts in (("right", right), ("left", left))]',
           ("tests/test_completeness.py::test_certify_one_sided_claim",
            "tests/test_completeness.py::test_certify_refuses_yamada")),
    Mutant("ambiguous-complement", "src/monorev/presentation.py",
           "if len(insts) > 1:",
           "if len(insts) > 99:",
           ("tests/test_presentation.py::test_ambiguous_complement_raises_a_fresh_error",
            "tests/test_reversing.py::test_ambiguity_propagates")),
    Mutant("schema-boundary", "src/monorev/presentation.py",
           "if names - bound:",
           "if False:",
           ("tests/test_presentation.py::test_schema_structural_errors",)),
    Mutant("compiled-domain", "src/monorev/presentation.py",
           "if values[slot] not in dom:",
           "if False:",
           ("tests/test_presentation.py::test_lookup_equals_checked_brute_force",
            "tests/test_presentation.py::test_indexed_lookup_equals_full_scan")),
    Mutant("repeated-hit", "src/monorev/presentation.py",
           "if pos == last and inst.lhs == out[-1].lhs and inst.rhs == out[-1].rhs:",
           "if False:",
           ("tests/test_presentation.py::test_lookup_equals_checked_brute_force",
            "tests/test_presentation.py::test_indexed_lookup_equals_full_scan")),
    Mutant("window-radius", "src/monorev/presentation.py",
           "return values.stop - values.start if isinstance(values, range) else len(values)",
           "return len(values)",
           ("tests/test_presentation.py::test_window_radius_past_ssize_t_is_capped",)),
    Mutant("window-domain", "src/monorev/presentation.py",
           "min(n - off for off in offsets)",
           "min(n + 1 - off for off in offsets)",
           ("tests/test_presentation.py::test_window_relations_match_the_reference",)),
    Mutant("doubled-core", "src/monorev/catalog.py",
           "tail = tuple(j for j in vertices if j not in core)",
           "tail = tuple(j for j in vertices)",
           ("tests/test_presentation.py::test_catalog_saves_as_pinned",
            "tests/test_presentation.py::test_both_forms_share_the_diagram")),
    Mutant("family-name", "src/monorev/presentation.py",
           "if not re.fullmatch(_FAMILY, fam):",
           "if False:",
           ("tests/test_presentation.py::test_load_presentation_errors",
            "tests/test_completeness.py::test_falsified_witnesses_parse_back")),
    Mutant("request-window", "src/monorev/cli.py",
           "p = instantiate_window(p, args.window)",
           "pass",
           ("tests/test_cli.py::test_oracle_equal", "tests/test_cli.py::test_oracle_class")),
    Mutant("transpose-order", "src/monorev/presentation.py",
           "        lead = inst\n"
           "        if pos == last and inst.lhs == out[-1].lhs and inst.rhs == out[-1].rhs:\n"
           "            continue\n",
           "        if pos == last and inst.lhs == out[-1].lhs and inst.rhs == out[-1].rhs:\n"
           "            continue\n"
           "        lead = inst\n",
           ("tests/test_presentation.py::test_transpose_is_filed_with_its_own_bindings",
            "tests/test_presentation.py::test_transposed_filing_law")),
    Mutant("mirror-self", "src/monorev/presentation.py",
           "if (s.lhs, s.rhs) != back != (s.rhs, s.lhs):",
           "if s.params and (s.lhs, s.rhs) != back != (s.rhs, s.lhs):",
           ("tests/test_presentation.py::test_mirror_symmetric",)),
    Mutant("diagonal-conflict", "src/monorev/presentation.py",
           "if x == y:  # solved, not filed: the kernel never looks (x, x) up",
           "if x == y:\n            continue",
           ("tests/test_completeness.py::test_certify_names_the_relation_of_a_diagonal_conflict",
            "tests/test_presentation.py::test_scan_files_cold_complements")),
    Mutant("lemma-skips-lookup", "src/monorev/completeness.py",
           "        comp = lookup(p, x, y)\n"
           "        if comp is None:\n"
           "            return _FIRST[Stuck]\n"
           "        if fuel >= 2 + len(comp.push):\n"
           "            return _PASS\n",
           "        return _PASS\n",
           ("tests/test_completeness.py::test_two_commutes_keeps_its_stuck_hypotheses",)),
    Mutant("lemma-fuel-gate", "src/monorev/completeness.py",
           "if fuel >= 2 and len(u) == len(v) == len(w) == 1",
           "if len(u) == len(v) == len(w) == 1",
           ("tests/test_completeness.py::test_repeated_letter_lemma_keeps_the_fuel_gates",)),
    Mutant("lemma-commuting-letters", "src/monorev/completeness.py",
           "            for l in over:\n"
           "                x, y = (c, l.gen) if c == u or (c == w and l.sign > 0) else (l.gen, c)\n"
           "                if l.gen == c or _complement_word(p, x, y, side) != ((y, 1), (x, -1)):\n"
           "                    return False\n",
           "",
           ("tests/test_completeness.py::test_distinct_letter_lemmas_law",)),
    Mutant("lemma-equal-complements", "src/monorev/completeness.py",
           "return uv == (uw[0], wv[1]) and fuel >= 3",
           "return uv is not None and uv[1:] == wv[1:] and fuel >= 3",
           ("tests/test_completeness.py::test_distinct_letter_lemmas_law",)),
    Mutant("lemma-step-bound", "src/monorev/completeness.py",
           "3 + len_v + 2 * len_u",
           "2 + len_v + 2 * len_u",
           ("tests/test_completeness.py::test_distinct_letter_lemmas_keep_the_fuel_gates",)),
    Mutant("local-type-guard", "src/monorev/completeness.py",
           "    if not p.translation_invariant() or any(",
           "    if False and any(",
           ("tests/test_completeness.py::test_no_local_types_outside_the_guard",)),
    Mutant("local-type-pairs", "src/monorev/completeness.py",
           "pairs.get((u, v)), pairs.get((u, w)), pairs.get((v, w)))",
           "None, None, None)",
           ("tests/test_completeness.py::test_local_types_agree_with_fresh_checks",)),
    Mutant("local-type-role", "src/monorev/completeness.py",
           "for zero in zeros for pair in ((g, zero), (zero, g))]), len(ids)) for g in finite}",
           "for zero in zeros[:1] for pair in ((g, zero),)]), len(ids)) for g in finite}",
           ("tests/test_completeness.py::test_local_type_law",)),
    Mutant("bare-positivity", "src/monorev/completeness.py",
           "        if any(l.sign < 0 for word in triple for l in word):",
           "        if False:",
           ("tests/test_completeness.py::test_cube_validation",)),
    Mutant("triple-normalisation", "src/monorev/completeness.py",
           "for w in thirds.get(min(a, b), zero)]",
           "for w in words]",
           ("tests/test_completeness.py::test_enumerate_generator_triples",)),
    Mutant("scan-reach", "src/monorev/presentation.py",
           "for i in range(2 * span + 2))",
           "for i in range(3))",
           ("tests/test_completeness.py::test_certify_refuses_wide_offset_conflict",)),
    Mutant("scan-generic-difference", "src/monorev/presentation.py",
           "for i in range(2 * span + 2))",
           "for i in range(2 * span + 1))",
           ("tests/test_presentation.py::test_complemented_verdict_equals_a_brute_scan",)),
    Mutant("scan-stops-at-a-complemented-pair", "src/monorev/presentation.py",
           "                _complement(p, x, y, side)\n                continue\n",
           "                _complement(p, x, y, side)\n                return\n",
           ("tests/test_completeness.py::test_certify_refuses_yamada",
            "tests/test_completeness.py::test_refused_certify_solves_up_to_each_first_conflict")),
    Mutant("union-key-sort", "src/monorev/oracle.py",
           "    keys.sort()\n",
           "",
           ("tests/test_oracle.py::test_scan_matches_reference_on_random_presentations",)),
)


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "certificates"))


def apply(mutant: Mutant, tree: Path) -> None:
    """Make the mutant's one replacement in the checkout at tree."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _pytest(tree: Path, tests) -> int:
    """pytest's exit status for the tests, run on the checkout at tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=tree, env=env, capture_output=True, text=True).returncode


def run(mutant: Mutant) -> tuple[str, float]:
    """('killed' | 'SURVIVED' | 'error (exit N)', seconds) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        _copy(tree)
        apply(mutant, tree)
        t0 = time.perf_counter()
        status = _pytest(tree, mutant.tests)
        seconds = time.perf_counter() - t0
    if status == 0:
        return "SURVIVED", seconds
    if status == KILLED:
        return "killed", seconds
    return f"error (exit {status})", seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help="mutants to run (default: all of them)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        ap.error(f"unknown mutant {unknown[0]!r}; known: {', '.join(known)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    # a kill counts only if the named tests pass on the checkout as it is
    status = _pytest(ROOT, sorted({test for m in chosen for test in m.tests}))
    if status != 0:
        print(f"the named tests do not pass without a mutant (pytest exit {status})")
        return 1
    worst = 0
    for mutant in chosen:
        verdict, seconds = run(mutant)
        print(f"{verdict:16} {mutant.name:24} {seconds:6.1f} s  {' '.join(mutant.tests)}",
              flush=True)
        if verdict != "killed":
            worst = 1
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
