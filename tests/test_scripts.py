"""The scripts under scripts/ run to completion through their main(), and
the benchmark's tracer still finds every attribute it hooks."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name, directory="scripts"):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, directory, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_catalog(capsys, tmp_path):
    script = load_script("certify_catalog")
    assert script.main(["--out", str(tmp_path), "d4:new", "d4:yamada"]) == 0
    assert json.loads((tmp_path / "d4_new.json").read_text())["claim"] == "cancellative-up-to"
    assert json.loads((tmp_path / "d4_yamada.json").read_text())["claim"] == "refused"


def test_certify_catalog_runs_from_a_bare_checkout(tmp_path):
    # the script finds src/ itself: no PYTHONPATH, no installed package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "certify_catalog.py"),
                           "--out", str(tmp_path), "d4:new"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "d4:new                   cancellative-up-to\n"


@pytest.mark.parametrize("flag,value", [("--t-bound", "-1"), ("--fuel", "-5")])
def test_certify_catalog_bad_bound_is_a_usage_error(capsys, tmp_path, flag, value):
    script = load_script("certify_catalog")
    with pytest.raises(SystemExit) as exc:
        script.main(["--out", str(tmp_path), flag, value, "d4:new"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: ")
    assert f"error: argument {flag}: must be >= 0" in err
    assert list(tmp_path.iterdir()) == []


def test_worked_examples(capsys):
    script = load_script("worked_examples")
    assert script.main() == 0
    first = capsys.readouterr().out
    assert "verified:" in first
    assert "$ monorev derive double_twist.script\n" in first
    # nothing in the tour depends on where its temporary files live
    assert script.main() == 0
    assert capsys.readouterr().out == first


def test_layer_bench(capsys, tmp_path):
    script = load_script("layer_bench")
    script.REPEATS = 1  # one fresh interpreter per case keeps this test near three seconds
    out = tmp_path / "bench.json"
    assert script.main(["--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["jobs"] == {case.__name__: ["case", case.__name__] for case in script.CASES}
    assert list(data["trees"]) == ["this"] and list(data["trees"]["this"]) == ["cached"]
    rows = data["trees"]["this"]["cached"]
    assert list(rows) == list(data["jobs"])
    figures = {name: value for row in rows.values() for name, value in row.items()}
    medians = {name for name in figures if not name.endswith(("_q1", "_q3", "_unscaled"))}
    assert medians == {
        "letter_hash_ms_per_100k", "letter_eq_ms_per_100k", "letter_sort_ms_per_100k",
        "right_complement_cold_us", "right_complement_warm_us", "pair_lookup_us",
        "check_complemented_ms", "certify_cold_ms", "certify6_cold_ms", "cube_warm_us",
        "reverse_warm_us", "window_ms", "window_table_ms", "cancellation_scan_ms",
        "monoid_equal_cold_ms", "monoid_equal_warm_ms", "quotient_ending_us_per_step",
        "quotient_cold_us_per_pair", "quotient_cycling_us_per_step", "parse_word_us",
        "triples_ms", "mirror_symmetric_us", "certify_refused_ms"}
    assert set(figures) == medians | {f"{m}_{s}" for m in medians for s in ("q1", "q3", "unscaled")}
    assert all(value > 0 for value in figures.values())
    assert all(figures[f"{m}_q1"] <= figures[m] <= figures[f"{m}_q3"] for m in medians)
    assert "certify_cold_ms" in capsys.readouterr().out


def test_layer_bench_times_each_tree(capsys, tmp_path):
    script = load_script("layer_bench")
    script.CASES = (script.triples,)  # the child looks the case up by name in the file
    out = tmp_path / "bench.json"
    assert script.main(["--out", str(out), "--runs", "3",
                        "--tree", f"a={ROOT}", "--tree", f"b={ROOT}"]) == 0
    data = json.loads(out.read_text())
    assert data["runs"] == 3
    # the rounds of three in which b's figure read lower than a's
    lower = data["lower"]
    assert (lower["tree"], lower["than"]) == ("b", "a")
    counts = lower["rounds"]["cached"]["triples"]
    assert set(counts) == {"triples_ms"} and 0 <= counts["triples_ms"] <= 3
    printed = capsys.readouterr().out.splitlines()
    assert printed[-2:] == ["rounds of 3 in which b read lower than a:",
                            f"cached   triples      triples_ms                   "
                            f"{counts['triples_ms']:4d} of 3"]
    trees = data["trees"]
    assert trees == {name: {"cached": {"triples": trees[name]["cached"]["triples"]}}
                     for name in ("a", "b")}
    for name in ("a", "b"):
        figures = trees[name]["cached"]["triples"]
        assert set(figures) == {"triples_ms", "triples_ms_q1", "triples_ms_q3",
                                "triples_ms_unscaled"}
        assert figures["triples_ms_q1"] <= figures["triples_ms"] <= figures["triples_ms_q3"]
        assert figures["triples_ms_unscaled"] > 0


@pytest.mark.parametrize("argv,message", [
    (["--runs", "0"], "--runs must be >= 1"),
    (["--runs", "2", "--cold-start", "1"], "--runs counts layer samples"),
    (["--tree", "a=.", "--tree", "b=.", "--tree", "a=src"], "--tree name 'a' is given twice")])
def test_layer_bench_runs_is_checked(capsys, tmp_path, argv, message):
    script = load_script("layer_bench")
    with pytest.raises(SystemExit) as exc:
        script.main(["--out", str(tmp_path / "bench.json"), *argv])
    assert exc.value.code == 2 and message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_layer_bench_names_a_failing_child(tmp_path):
    # the child imports monorev from the tree under test, even where an installed
    # monorev could be found, and its error reaches the parent
    script = load_script("layer_bench")
    script.CASES = (script.triples,)
    package = tmp_path / "broken" / "src" / "monorev"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise RuntimeError("broken tree")\n')
    with pytest.raises(RuntimeError, match="RuntimeError: broken tree"):
        script.main(["--out", str(tmp_path / "bench.json"),
                     "--tree", f"broken={tmp_path / 'broken'}"])


def test_layer_bench_cold_start(capsys, tmp_path):
    script = load_script("layer_bench")
    script.COLD_COMMANDS = {"list": ["list"]}  # three fresh interpreters in all
    out = tmp_path / "cold.json"
    assert script.main(["--out", str(out), "--cold-start", "1"]) == 0
    data = json.loads(out.read_text())
    assert data["jobs"] == {"list": ["command", ["list"]]}
    assert list(data["trees"]["this"]) == ["compile", "cached"]
    for mode in ("compile", "cached"):
        figures = data["trees"]["this"][mode]["list"]
        medians = {"import_ms", "main_ms", "total_ms", "process_ms"}
        assert set(figures) == medians | {f"{m}_{s}" for m in medians
                                          for s in ("q1", "q3", "unscaled")}
        assert all(value > 0 for value in figures.values())
        # one run is its own lower and upper quartile
        assert all(figures[f"{m}_q1"] == figures[m] == figures[f"{m}_q3"] for m in medians)
        # the parent times the whole child, start-up included, and does not scale it
        assert figures["process_ms"] == figures["process_ms_unscaled"]
        assert figures["process_ms"] > figures["total_ms_unscaled"]
    assert "this     cached   list" in capsys.readouterr().out


def test_code_lines(capsys, tmp_path):
    script = load_script("code_lines")
    sample = tmp_path / "sample.py"
    sample.write_text('"""A module docstring\n\nover three lines."""\n\n'
                      "# a comment\nx = 1\n\ny = x + 1  # and a comment after code\n")
    assert script.main([str(sample)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"      2  {sample}", "      2  total"]
    assert script.main([os.path.join(ROOT, "src", "monorev")]) == 0
    rows = [int(line.split()[0].replace(",", "")) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) > 2 and sum(rows[:-1]) == rows[-1]


def test_bench_hooks_resolve():
    # the traced benchmark skips a hook whose attribute is gone and reports
    # its metrics as absent, so a rename in src/ must show up here
    tracing = load_script("tracing", directory="bench")
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_mutants_still_apply():
    # a mutant whose old text moved or whose tests were renamed would
    # report an error instead of a kill; the full run is scripts/mutants.py
    script = load_script("mutants")
    assert len({m.name for m in script.MUTANTS}) == len(script.MUTANTS) >= 5
    for mutant in script.MUTANTS:
        with open(os.path.join(ROOT, mutant.file), encoding="utf-8") as fh:
            assert fh.read().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.tests
        for test in mutant.tests:
            path, _, name = test.partition("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                assert f"\ndef {name}(" in fh.read(), test


def test_readme_lists_every_bench_file():
    # one row of README's BENCH_*.json table per evidence file in the repo root
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        rows = [line.split("`")[1] for line in fh if line.startswith("| `BENCH_")]
    files = [name for name in os.listdir(ROOT) if name.startswith("BENCH_") and name.endswith(".json")]
    assert sorted(rows) == sorted(set(rows)) == sorted(files)
