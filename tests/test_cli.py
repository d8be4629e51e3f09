"""End-to-end CLI behavior: outputs, files, and the exit code contract.

0 pass, 1 definite failure, 2 inconclusive, 3 usage.  Everything runs
in-process through main(argv).
"""

import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monorev import catalog, completeness, load_presentation, oracle, save_presentation
from monorev.cli import _build_parser, main

from conftest import (
    FIXTURES,
    GLUE,
    NONHOM,
    ONE_SIDED,
    PINNED_T,
    ROUND_TRIP_KEYS,
    SAVED_CATALOG,
    SKEWED,
    SQUARE_CHAIN,
    TWO_COMMUTES,
    WIDE_OFFSET,
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def skewed_file(tmp_path):
    path = tmp_path / "skewed.pres"
    path.write_text(SKEWED)
    return str(path)


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    names = out.splitlines()
    assert "d4:new" in names and "affine-a:cll:<n>" in names


def test_show(capsys, tmp_path):
    code, out, _ = run(capsys, "show", "d4:new")
    assert code == 0
    assert out.startswith("# presentation d4:new\n# homogeneous: yes\n"
                          "generators: s1 s2 s3 s4 ; families: t\n")
    assert "schema translation [i in Z; j in Z]: t(i) t(i-1) = t(j) t(j-1)\n" in out
    # the output is a presentation file, which certify takes as it stands
    path = tmp_path / "d4.pres"
    path.write_text(out)
    code, out, _ = run(capsys, "certify", str(path), "--t-bound", "1")
    assert code == 0 and json.loads(out)["claim"] == "cancellative-up-to"


SHOW_TEXTS = {"two_commutes": TWO_COMMUTES, "skewed": SKEWED, "glue": GLUE,
              "one_sided": ONE_SIDED, "nonhom": NONHOM, "wide_offset": WIDE_OFFSET,
              "pinned_t": PINNED_T, "square_chain": SQUARE_CHAIN}


@pytest.mark.parametrize("source", ROUND_TRIP_KEYS + list(SHOW_TEXTS))
def test_show_prints_a_presentation_file(capsys, tmp_path, source):
    if source in SHOW_TEXTS:
        path = tmp_path / f"{source}.pres"
        path.write_text(SHOW_TEXTS[source])
        p, source = load_presentation(SHOW_TEXTS[source], name=path.name), str(path)
    else:
        p = catalog.load(source)
    code, out, _ = run(capsys, "show", source)
    assert code == 0
    homogeneous = "no" if p.name == "nonhom.pres" else "yes"
    assert out.startswith(f"# presentation {p.name}\n# homogeneous: {homogeneous}\n")
    text = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("#"))
    assert text == save_presentation(p)
    if source in SAVED_CATALOG:
        assert text == SAVED_CATALOG[source]
    again = load_presentation(out)
    assert again.schemas == p.schemas and again.alphabet == p.alphabet


@pytest.mark.parametrize("brk", ["\n", "\r", "\x85", "\u2028"])
def test_show_keeps_a_file_name_on_its_comment_line(capsys, tmp_path, brk):
    # a character that str.splitlines breaks at is escaped in the comment, so
    # the output still loads
    path = tmp_path / f"two{brk}lines.pres"
    path.write_text(SAVED_CATALOG["d4:new"])
    code, out, _ = run(capsys, "show", str(path))
    escaped = brk.encode("unicode_escape").decode()
    assert code == 0 and out.startswith(f"# presentation two{escaped}lines.pres\n")
    shown = tmp_path / "shown.pres"
    shown.write_text(out)
    code, out, _ = run(capsys, "certify", str(shown), "--t-bound", "1")
    assert code == 0 and json.loads(out)["claim"] == "cancellative-up-to"


def test_reverse_text(capsys):
    code, out, _ = run(capsys, "reverse", "d4:new", "t(2)^-1 s3 s3")
    assert code == 0
    assert out == (
        "start: t(2)^-1 s3 s3\n"
        "  step 1: t_braid(i=2, j=3) @0 -> s3 t(2) s3^-1 t(2)^-1 s3\n"
        "  step 2: t_braid(i=2, j=3) @3 -> s3 t(2) s3^-1 s3 t(2) s3^-1 t(2)^-1\n"
        "  step 3: cancel @2 -> s3 t(2) t(2) s3^-1 t(2)^-1\n"
        "outcome: terminal\n"
        "v' = s3 t(2) t(2)\n"
        "u' = t(2) s3\n"
    )


def test_reverse_json(capsys):
    code, out, _ = run(capsys, "reverse", "d4:new", "t(2)^-1 s3 s3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == {"kind": "terminal", "v_prime": "s3 t(2) t(2)",
                               "u_prime": "t(2) s3"}
    assert data["steps"][2] == {"position": 2, "kind": "cancel", "rule": None,
                                "after": "s3 t(2) t(2) s3^-1 t(2)^-1"}


def test_reverse_limit_and_fuel(capsys):
    code, out, _ = run(capsys, "reverse", "d4:new", "t(2)^-1 s3 s3", "--limit", "1")
    assert code == 0 and "... 2 more steps" in out
    code, out, _ = run(capsys, "reverse", "d4:new", "t(2)^-1 s3 s3", "--fuel", "1")
    assert code == 2 and "diverged (fuel 1)" in out


def test_reverse_empty_and_stuck_text(capsys, tmp_path):
    code, out, _ = run(capsys, "reverse", "d4:new", "s1^-1 s1")
    assert code == 0 and out.endswith("outcome: empty\n")
    path = tmp_path / "two.pres"
    path.write_text(TWO_COMMUTES)
    code, out, _ = run(capsys, "reverse", str(path), "b1^-1 c1")
    assert code == 2 and out.endswith("outcome: stuck @0 on (b1, c1)\n")


def test_reverse_json_stuck(capsys, tmp_path):
    path = tmp_path / "two.pres"
    path.write_text(TWO_COMMUTES)
    code, out, _ = run(capsys, "reverse", str(path), "b1^-1 c1", "--format", "json")
    assert code == 2
    data = json.loads(out)
    assert data["steps"] == []
    assert data["outcome"] == {"kind": "stuck", "position": 0, "pair": ["b1", "c1"]}


def test_quotient_equal(capsys):
    code, out, _ = run(capsys, "quotient", "d4:new",
                       "t(1) t(0) s1 t(1) t(0) s1", "s1 t(1) t(0) s1 t(1) t(0)")
    assert code == 0
    assert out.strip() == ("equal: t(1) t(0) s1 t(1) t(0) s1 and "
                           "s1 t(1) t(0) s1 t(1) t(0) name the same element (17 steps)")


def test_quotient_common_multiple(capsys):
    code, out, _ = run(capsys, "quotient", "d4:new", "s3", "t(2)")
    assert code == 0
    assert "common multiple: s3 t(2) s3 = t(2) s3 t(2)" in out


def test_quotient_left_common_multiple(capsys):
    code, out, _ = run(capsys, "quotient", "--left", "d4:new", "s3", "t(2)")
    assert code == 0
    assert "common multiple: t(2) s3 s3 = s3 t(2) t(2)" in out


def test_quotient_diverged(capsys):
    code, out, _ = run(capsys, "quotient", "d4:new", "t(1) t(0) s1 t(1) t(0) s1",
                       "s1 t(1) t(0) s1 t(1) t(0)", "--fuel", "1")
    assert code == 2 and out == "diverged (fuel 1)\n"


def test_quotient_stuck(capsys, tmp_path):
    path = tmp_path / "two.pres"
    path.write_text(TWO_COMMUTES)
    code, out, _ = run(capsys, "quotient", str(path), "b1", "c1")
    assert code == 2 and "stuck @0 on (b1, c1)" in out


def test_quotient_cycles(capsys):
    # the reversal of u^-1 v is proved to run forever, drifting down by t(-2)
    args = ("quotient", "d4:new", "s3 t(-2) s1 t(-2)", "t(-2) s3 t(0)")
    code, out, _ = run(capsys, *args)
    assert code == 2
    assert out == ("no common multiple reachable by reversing: "
                   "the reversal cycles (step 28, period 12, shift -2)\n")
    assert "not equal" not in out
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 2
    data = json.loads(out)
    assert data["outcome"] == {"kind": "cycles", "step": 28, "period": 12, "shift": -2}
    assert len(data["steps"]) == 28
    code, out, _ = run(capsys, "reverse", "d4:new",
                       "t(-2)^-1 s1^-1 t(-2)^-1 s3^-1 t(-2) s3 t(0)", "--limit", "0")
    assert code == 2
    assert out.endswith("outcome: cycles (step 28, period 12, shift -2)\n")


def test_cube_pass(capsys):
    code, out, _ = run(capsys, "cube", "e8:new", "s7", "t(2)", "s8")
    assert code == 0 and out.strip() == "cube (s7; t(2); s8) right: pass"
    code, out, _ = run(capsys, "cube", "e8:new", "s7", "t(2)", "s8", "--left")
    assert code == 0 and "left: pass" in out


def test_cube_fail_and_json(capsys, skewed_file):
    code, out, _ = run(capsys, "cube", skewed_file, "a1", "b1", "c1")
    assert code == 1 and "fail (not-trivial)" in out
    code, out, _ = run(capsys, "cube", skewed_file, "a1", "b1", "c1",
                       "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "fail" and data["reason"] == "not-trivial"
    assert data["second"]["outcome"]["kind"] == "terminal"


def test_cube_json_replays_each_reversal_once(capsys, monkeypatch):
    starts = []
    reverse = completeness.right_reverse

    def counting(p, word, fuel):
        starts.append(str(word))
        return reverse(p, word, fuel)

    monkeypatch.setattr(completeness, "right_reverse", counting)
    code, out, _ = run(capsys, "cube", "e8:new", "s7", "t(2)", "s8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert starts == [data["first"]["start"], data["second"]["start"]]
    assert data["second"]["outcome"]["kind"] == "empty"


def test_certify_pass(capsys):
    code, out, _ = run(capsys, "certify", "d4:new")
    assert code == 0
    data = json.loads(out)
    assert data["claim"] == "cancellative-up-to"
    assert data["triples_checked"] == 395 and data["failures"] == []


def test_certify_refused_exit(capsys):
    code, out, _ = run(capsys, "certify", "d4:yamada")
    assert code == 1
    assert json.loads(out)["claim"] == "refused"


def test_certify_pinned_index_refused(capsys, tmp_path):
    path = tmp_path / "pinned.pres"
    path.write_text(PINNED_T)
    for bound in ("3", "5"):
        code, out, err = run(capsys, "certify", str(path), "--t-bound", bound)
        assert code == 1 and err == ""
        assert json.loads(out)["claim"] == "refused"


def test_offset_outside_finite_family_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "up.pres"
    path.write_text("generators: s1 s2 s3\nschema up: s(j) s(j+1) = s(j+1) s(j)\n")
    code, out, err = run(capsys, "show", str(path))
    assert code == 3 and out == ""
    assert "s(j+1) at j=3 is s4, outside the finite family" in err


def test_family_declared_twice_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "twice.pres"
    path.write_text("generators: t1 a1 b1 ; families: t\na1 b1 = b1 a1\n")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 3 and out == ""
    assert err == "monorev: family 't' is named both in 'generators:' and in 'families:'\n"


def test_malformed_family_name_is_a_usage_error(capsys, tmp_path):
    # t(1) is no family name: its letters would print as t(1)0, which no
    # parser reads back, so a certificate could not name them
    path = tmp_path / "family.pres"
    path.write_text("generators: a1 ; families: t(1)\n")
    code, out, err = run(capsys, "certify", str(path), "--t-bound", "0")
    assert code == 3 and out == ""
    assert err == "monorev: malformed family name 't(1)' in header\n"


def test_header_without_generators_is_a_usage_error(capsys, tmp_path):
    # with no letter there is no word, so a sweep or scan would count
    # nothing up to any length: a huge --word-len would loop instead of
    # meeting the cap
    path = tmp_path / "empty.pres"
    path.write_text("generators: ; families:\n")
    code, out, err = run(capsys, "certify", str(path), "--word-len", "1000000000")
    assert code == 3 and out == ""
    assert err == "monorev: the 'generators:' header names no generator\n"


@pytest.mark.parametrize("key", ["d4:yamada", "d4:new"])
@pytest.mark.parametrize("flag,value,message", [
    ("--t-bound", "-1", "argument --t-bound: must be >= 0"),
    ("--word-len", "0", "argument --word-len: must be >= 1"),
    ("--word-len", "two", "argument --word-len: invalid int value: 'two'"),
])
def test_certify_bad_bound_is_a_usage_error(capsys, key, flag, value, message):
    # a refusing key too: it must not write a certificate carrying the bad bound
    code, out, err = run(capsys, "certify", key, flag, value)
    assert code == 3 and out == ""
    assert err.endswith(f"monorev certify: error: {message}\n")


def test_certify_undetermined_exit(capsys):
    code, out, _ = run(capsys, "certify", "affine-a:classical:3")
    assert code == 2
    assert json.loads(out)["claim"] == "undetermined"


def test_certify_output_file(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "d4:new", "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["presentation"] == "d4:new"


def test_certify_word_len(capsys, tmp_path):
    path = tmp_path / "nonhom.pres"
    path.write_text(NONHOM)
    code, out, _ = run(capsys, "certify", str(path))
    assert code == 1 and "rerun with a word length" in out
    code, out, _ = run(capsys, "certify", str(path), "--word-len", "2")
    assert code == 0 and json.loads(out)["claim"] == "complete-up-to"


@pytest.mark.parametrize("flag,value,message", [
    ("--t-bound", "100000", "word triples up to length 1 at t_bound 100000"),
    ("--word-len", "1000000000", "word triples up to length 3 at t_bound 3"),
])
def test_certify_huge_sweep_is_inconclusive(capsys, tmp_path, flag, value, message):
    # the triples are counted before any word is built, so a sweep of
    # 200,002 generators is refused at once instead of walking their cube
    path = tmp_path / "tb.pres"
    path.write_text("generators: s1 ; families: t\nschema tb: t(i) s1 t(i) = s1 t(i) s1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "certify", str(path), flag, value)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"monorev: {message} exceed the sweep cap of 1000000 triples\n"


def test_derive(capsys):
    script = os.path.join(FIXTURES, "double_twist_s1.script")
    code, out, _ = run(capsys, "derive", script)
    assert code == 0
    assert out.strip().endswith(
        "verified: t(1) t(0) s1 t(1) t(0) s1 = s1 t(1) t(0) s1 t(1) t(0) in 7 steps")
    code, out, _ = run(capsys, "derive", script, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["steps"] == 7 and len(data["intermediates"]) == 8


def test_derive_presentation_file(capsys, tmp_path):
    pres = tmp_path / "d4.pres"
    pres.write_text(save_presentation(catalog.load("d4:new")))
    script = tmp_path / "climb.script"
    script.write_text(f"presentation: {pres}\nstart: t(1) t(0)\nexpect: t(2) t(1)\n"
                      "rel translation i=2,j=1 rl @0\n")
    code, out, _ = run(capsys, "derive", str(script))
    assert code == 0 and "verified: t(1) t(0) = t(2) t(1) in 1 steps" in out


def test_derive_catalog_script_on_saved_copy(capsys, tmp_path):
    # t_braid keeps its parameter j over s1..s4 when saved, so a script
    # written for the catalog key (rel t_braid i=1,j=1) replays on the copy
    pres = tmp_path / "d4.pres"
    pres.write_text(save_presentation(catalog.load("d4:new")))
    with open(os.path.join(FIXTURES, "double_twist_s1.script"), encoding="utf-8") as fh:
        text = fh.read()
    script = tmp_path / "double_twist_s1.script"
    script.write_text(text.replace("presentation: d4:new", f"presentation: {pres}"))
    code, out, _ = run(capsys, "derive", str(script))
    assert code == 0
    assert out.strip().endswith(
        "verified: t(1) t(0) s1 t(1) t(0) s1 = s1 t(1) t(0) s1 t(1) t(0) in 7 steps")


@pytest.mark.parametrize("step, start, expect", [
    ("rel t_braid i=0,j=1 lr @0", "t(0) s1 t(0)", "s1 t(0) s1"),
    ("rel s_braid_1_4 lr @0", "s1 s4 s1", "s4 s1 s4"),
], ids=["t_braid", "s_braid_1_4"])
def test_derive_e6_script_on_saved_copy(capsys, tmp_path, step, start, expect):
    # e6 braids t(i) only with s1..s3 and names its fixed schemas; the saved
    # copy keeps both, so a script written for e6:new replays on it
    pres = tmp_path / "e6.pres"
    pres.write_text(save_presentation(catalog.load("e6:new")))
    script = tmp_path / "e6.script"
    script.write_text(f"presentation: {pres}\nstart: {start}\nexpect: {expect}\n{step}\n")
    code, out, err = run(capsys, "derive", str(script))
    assert code == 0, err
    assert f"verified: {start} = {expect} in 1 steps" in out


def test_derive_failure(capsys, tmp_path):
    path = tmp_path / "bad.script"
    path.write_text("presentation: d4:new\nstart: s1\nexpect: s2\n")
    code, out, _ = run(capsys, "derive", str(path))
    assert code == 1 and "failed at final word" in out


def test_derive_unknown_schema_is_a_failed_step(capsys, tmp_path):
    path = tmp_path / "nosuch.script"
    path.write_text("presentation: d4:new\nstart: s1\nexpect: s1\nrel nosuch lr @0\n")
    code, out, err = run(capsys, "derive", str(path), "--format", "json")
    assert code == 1 and err == ""
    data = json.loads(out)
    assert data["failed_at"] == 0 and data["error"].startswith("rel nosuch: ")


def test_derive_parameter_bound_twice_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "twice.script"
    path.write_text("presentation: d4:new\nstart: t(1) t(0)\nexpect: t(2) t(1)\n"
                    "rel translation i=1,i=2,j=1 rl @0\n")
    code, out, err = run(capsys, "derive", str(path))
    assert code == 3 and out == ""
    assert "binds i twice" in err and "Traceback" not in err


def test_derive_missing_file(capsys):
    code, _, err = run(capsys, "derive", "/no/such/file.script")
    assert code == 3 and "No such file" in err


def test_oracle_equal(capsys):
    code, out, _ = run(capsys, "oracle", "equal", "d4:new", "t(1) t(0)", "t(2) t(1)")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "oracle", "equal", "d4:new", "s1", "s2")
    assert code == 1 and out.strip() == "not equal"


def test_oracle_class(capsys):
    code, out, _ = run(capsys, "oracle", "class", "d4:new", "t(1) t(0)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class size: 4"
    assert "t(-1) t(-2)" in lines[1:]


def test_oracle_class_cap_is_inconclusive(capsys):
    code, out, err = run(capsys, "oracle", "class", "d4:new", "t(1) t(0) s1 t(1) t(0) s1",
                         "--cap", "10")
    assert code == 2 and out == ""
    assert err == "monorev: class of t(1) t(0) s1 t(1) t(0) s1 exceeded cap 10\n"


@pytest.mark.parametrize("command", [("class", "s1"), ("equal", "s1", "s2"), ("scan",)])
def test_oracle_huge_window_is_refused(capsys, command):
    # the window is counted before it is built, so this takes no time or memory
    t0 = time.perf_counter()
    code, out, err = run(capsys, "oracle", command[0], "d4:new", *command[1:],
                         "--window", "1000000000")
    assert code == 2 and out == ""
    assert err.startswith("monorev: the window of radius 1000000000 on d4:new holds ")
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("command", [("class", "s1"), ("equal", "s1", "s2"), ("scan",)])
def test_oracle_window_past_ssize_t_is_refused(capsys, command):
    # 2n + 1 >= 2**63 generators: refused with the cap message, not an OverflowError
    code, out, err = run(capsys, "oracle", command[0], "d4:new", *command[1:],
                         "--window", "4611686018427387904")
    assert code == 2 and out == ""
    assert err.startswith("monorev: the window of radius 4611686018427387904 on d4:new holds ")
    assert err.endswith(" generators and schema bindings, more than the cap of 200000\n")


def test_oracle_scan(capsys, tmp_path):
    code, out, _ = run(capsys, "oracle", "scan", "d4:new", "--max-len", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "cancellative-within-bound"
    path = tmp_path / "glue.pres"
    path.write_text(GLUE)
    code, out, _ = run(capsys, "oracle", "scan", str(path), "--max-len", "2")
    assert code == 1 and json.loads(out)["verdict"] == "violation"


def test_oracle_scan_huge_max_len_is_inconclusive(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "scan", "d4:new", "--max-len", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "monorev: words of length up to 6 exceed cap 500000\n"


def test_render_summary(capsys):
    code, out, _ = run(capsys, "render", "d4:new", "t(2)^-1 s3 s3")
    assert code == 0
    assert out == (
        "grid for t(2)^-1 s3 s3 (right reversing)\n"
        "nodes: 10\n"
        "path edges: 3\n"
        "completion edges: 8\n"
        "epsilon arcs: 1\n"
        "cells: 2\n"
        "outcome: terminal\n"
    )


def test_render_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "render", "d4:new", "t(2)^-1 s3 s3", "--dot", "-")
    assert code == 0
    assert out.startswith("digraph reversing_grid {")
    assert out.count("label=") == 8 and out.count("style=dashed") == 1
    target = tmp_path / "grid.dot"
    code, out, _ = run(capsys, "render", "d4:new", "t(2)^-1 s3 s3",
                       "--dot", str(target))
    assert code == 0 and out == ""
    assert target.read_text().count("label=") == 8


@pytest.mark.parametrize("order", [("--dot", "-o"), ("-o", "--dot")])
def test_render_dot_and_output_exclude_each_other(capsys, tmp_path, order):
    # -o names the text summary, which --dot replaces, so the pair is refused
    # before anything is written, a missing directory included
    paths = {"--dot": tmp_path / "grid.dot", "-o": tmp_path / "no-such-dir" / "summary"}
    argv = [arg for flag in order for arg in (flag, str(paths[flag]))]
    code, out, err = run(capsys, "render", "d4:new", "t(2)^-1 s3 s3", *argv)
    assert code == 3 and out == ""
    assert err.startswith("usage: monorev render ") and "not allowed with argument" in err
    assert list(tmp_path.iterdir()) == []


def test_render_no_grid(capsys):
    code, out, err = run(capsys, "render", "d4:new", "t(2)^-1 s3 s3", "--fuel", "0")
    assert code == 2 and out == ""
    assert "no grid: reversal ended diverged" in err


def test_ambiguous_exit(capsys):
    code, _, err = run(capsys, "reverse", "d4:yamada", "s1^-1 t(1)")
    assert code == 2 and "ambiguous complement" in err


@pytest.mark.parametrize("argv", [
    ("reverse", "d4:new", "s1^-1 s2"),
    ("quotient", "d4:new", "s1", "s2"),
    ("cube", "e8:new", "s1", "s2", "s3"),
    ("certify", "e8:new"),
    ("certify", "d4:yamada"),
    ("render", "d4:new", "t(2)^-1 s3 s3"),
])
def test_negative_fuel_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--fuel", "-1")
    assert code == 3 and out == ""
    assert err == "monorev: fuel must be >= 0\n"


@pytest.mark.parametrize("argv,message", [
    # below zero, the step limit would print "... 4 more steps" for a 3-step trace
    (("reverse", "d4:new", "t(2)^-1 s3 s3", "--limit", "-1"),
     "monorev reverse: error: argument --limit: must be >= 0"),
    # no class fits a cap of 0, and exit 2 is kept for inconclusive outcomes
    (("oracle", "class", "d4:new", "s1 s2", "--cap", "0"),
     "monorev oracle class: error: argument --cap: must be >= 1"),
    (("oracle", "equal", "d4:new", "s1", "s1", "--window", "0"),
     "monorev oracle equal: error: argument --window: must be >= 1"),
    (("oracle", "scan", "d4:new", "--max-len", "0"),
     "monorev oracle scan: error: argument --max-len: must be >= 1"),
    (("oracle", "scan", "d4:new", "--cap", "0"),
     "monorev oracle scan: error: argument --cap: must be >= 1"),
])
def test_bad_numeric_flag_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.endswith(f"{message}\n")


def _subparsers(parser):
    """parser and every subparser under it, depth first."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _subparsers(child)


def test_every_option_has_help_text():
    parsers = list(_subparsers(_build_parser()))
    assert {"monorev oracle class", "monorev oracle scan"} <= {p.prog for p in parsers}
    missing = [f"{parser.prog} {action.option_strings[0]}"
               for parser in parsers for action in parser._actions
               if action.option_strings and not isinstance(action, argparse._HelpAction)
               and not action.help]
    assert missing == []


@pytest.mark.parametrize("argv, func, name", [
    (["certify", "d4:new"], completeness.certify, "t_bound"),
    (["oracle", "scan", "d4:new"], oracle.cancellation_scan, "max_len"),
    (["oracle", "scan", "d4:new"], oracle.cancellation_scan, "cap"),
    (["oracle", "class", "d4:new", "s1"], oracle.equivalence_class, "cap"),
    (["oracle", "equal", "d4:new", "s1", "s2"], oracle.monoid_equal, "cap"),
])
def test_defaults_match_the_library(argv, func, name):
    # cli.py repeats these defaults: it does not import the modules at load time
    args = _build_parser().parse_args(argv)
    assert getattr(args, name) == inspect.signature(func).parameters[name].default


def test_usage_errors(capsys):
    code, _, err = run(capsys, "show", "no:such:key")
    assert code == 3 and "neither a catalog key" in err
    code, _, err = run(capsys, "reverse", "d4:new", "blorp")
    assert code == 3 and "malformed letter token" in err
    code, _, err = run(capsys, "frobnicate")
    assert code == 3
    code, _, err = run(capsys)
    assert code == 3


def test_file_named_like_a_malformed_affine_key_loads(capsys, tmp_path, monkeypatch):
    # catalog.load refuses these names with a ValueError, not a KeyError.  A
    # relative name, since an absolute path never parses as an affine key.
    monkeypatch.chdir(tmp_path)
    for name in ("affine-a:cll:x", "affine-a:cll:2"):
        (tmp_path / name).write_text(SAVED_CATALOG["d4:new"])
        code, out, _ = run(capsys, "show", name)
        assert code == 0 and out.startswith(f"# presentation {name}\n")
        assert SAVED_CATALOG["d4:new"] in out
    # a derivation script names its presentation the same way
    (tmp_path / "s1.script").write_text("presentation: affine-a:cll:x\nstart: s1\nexpect: s1\n")
    code, out, _ = run(capsys, "derive", "s1.script")
    assert code == 0 and "verified: s1 = s1" in out
    # a valid key wins over a file of its name
    (tmp_path / "affine-a:cll:3").write_text(SAVED_CATALOG["d4:new"])
    code, out, _ = run(capsys, "show", "affine-a:cll:3")
    assert code == 0 and out.endswith(save_presentation(catalog.load("affine-a:cll:3")))
    # without a file the catalog's message stands
    code, out, err = run(capsys, "show", "affine-a:cll:y")
    assert code == 3 and out == ""
    assert err == "monorev: rank suffix in 'affine-a:cll:y' must be an integer\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["list"], ["certify", "d4:new"]], ids=" ".join)
def test_closed_stdout_is_inconclusive_and_silent(argv, unbuffered):
    # the reader of stdout is gone before the command starts, so the outcome
    # never reaches it: no message, exit 2, with stdout buffered or not
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(catalog.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run([sys.executable, "-m", "monorev.cli", *argv], stdout=write,
                               stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (2, b"")


@pytest.mark.parametrize("argv", [
    ("certify", "d4:new", "--output", "{dir}"),
    ("oracle", "scan", "d4:new", "--output", "{dir}"),
    ("render", "d4:new", "s1^-1 s2", "--dot", "{dir}"),
    ("show", "{dir}"),
    ("derive", "{dir}"),
])
def test_directory_path_is_a_usage_error(capsys, tmp_path, argv):
    code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 3
    assert err.startswith("monorev: ") and err.count("\n") == 1
    assert "Is a directory" in err and str(tmp_path) in err


@pytest.mark.parametrize("argv", [
    ("certify", "d4:new", "-o", "{missing}"),
    ("oracle", "scan", "d4:new", "-o", "{missing}"),
    ("render", "d4:new", "s1^-1 s2", "--dot", "{missing}"),
])
def test_bad_output_path_fails_before_the_work(capsys, monkeypatch, tmp_path, argv):
    from monorev import oracle, reversing

    def work(*args, **kwargs):
        pytest.fail("the command ran its work before checking its output path")

    for module, name in ((completeness, "certify"), (oracle, "cancellation_scan"),
                         (reversing, "right_reverse")):
        monkeypatch.setattr(module, name, work)
    missing = tmp_path / "no-such-dir" / "out"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 3 and out == ""
    assert err == f"monorev: [Errno 2] No such file or directory: '{missing}'\n"
    assert not missing.parent.exists()


@pytest.mark.parametrize("argv", [
    ("certify", "d4:new", "-o", ""),
    ("oracle", "scan", "d4:new", "-o", ""),
    ("render", "d4:new", "s1^-1 s2", "--dot", ""),
])
def test_empty_output_path_fails_before_the_work(capsys, monkeypatch, argv):
    # the empty path's parent is the empty string, which must not pass for "."
    from monorev import oracle, reversing

    def work(*args, **kwargs):
        pytest.fail("the command ran its work before checking its output path")

    for module, name in ((completeness, "certify"), (oracle, "cancellation_scan"),
                         (reversing, "right_reverse")):
        monkeypatch.setattr(module, name, work)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "monorev: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("argv", [("show", "{path}"), ("derive", "{path}")])
def test_undecodable_file_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    data = b"generators: a1 b1\n# caf\xe9\na1 b1 = b1 a1\n"  # latin-1, not UTF-8
    path.write_bytes(data)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 3 and out == ""
    offset = data.index(b"\xe9")
    assert err == (f"monorev: {path}: not valid UTF-8 at byte {offset} "
                   "(invalid continuation byte)\n")


# The CLI fuzz law.  A case is a presentation file and three words, made of
# tokens that fit the drawn header, and then, in most cases, one token of
# the file or of a word replaced by a bad or hostile one, a malformed family
# name or an inverted header generator among them.  A schema head may
# repeat a name, r0 or a plain line's rel_1.  Each case runs one command
# that reads a presentation, in-process, with small budgets.
_BAD = ["a", "1a", "t(x", "a(99)", "b(i)", "s3", "t(1000000000)", "t(i+1000000000)",
        "a(j+5)", "c(3)", "=", "^-1", "[i", "Q]", ";", "families:", "generators:", "schema",
        "t(1)", "1t", "a1^-1"]
_CLAUSES = 3 * [""] + [" [i in Z]", " [j in {1, 2}]", " [i in Z; j in {1, 2}]",
                       " [j in {1000000000}]"]


def _words(pool, min_size=1):
    return st.lists(st.sampled_from(pool), min_size=min_size, max_size=3).map(" ".join)


@st.composite
def _fuzz_case(draw):
    gens = draw(st.lists(st.sampled_from(["a1", "a2", "b1"]), min_size=1, max_size=3,
                         unique=True))
    family = draw(st.booleans())
    letters = gens + (["t(0)", "t(1)", "t(-2)"] if family else [])
    patterns = letters + ["a(j)", "a(j+1)"] + (["t(i)", "t(i+1)", "t(i-3)"] if family else [])
    lines = ["generators: " + " ".join(gens) + ("; families: t" if family else "")]
    for k in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            lines.append(f"{draw(_words(letters))} = {draw(_words(letters))}")
        else:
            name = draw(st.sampled_from([f"r{k}", "r0", "rel_1"]))
            head = f"schema {name}{draw(st.sampled_from(_CLAUSES))}"
            lines.append(f"{head}: {draw(_words(patterns))} = {draw(_words(patterns))}")
    signed = letters + [letter + "^-1" for letter in letters]
    parts = ["\n".join(lines)] + [draw(_words(letters, 0) | _words(signed, 0)) for _ in range(3)]
    bad = draw(st.none() | st.tuples(st.integers(0, 3), st.integers(0, 99), st.sampled_from(_BAD)))
    if bad is not None:  # one token of one part turns bad
        part, at, token = bad
        pieces = parts[part].split(" ")
        pieces[at % len(pieces)] = token
        parts[part] = " ".join(pieces)
    return parts[0] + "\n", parts[1:]


_SMALL = ("--fuel", "40")
_FUZZ_COMMANDS = [  # a command, and its arguments after the presentation from three words
    (["show"], lambda u, v, w: []),
    (["reverse"], lambda u, v, w: [u + " " + v, *_SMALL]),
    (["reverse"], lambda u, v, w: [u, "--left", "--format", "json", *_SMALL]),
    (["quotient"], lambda u, v, w: [u, v, *_SMALL]),
    (["quotient"], lambda u, v, w: [u, v, "--left", "--format", "json", *_SMALL]),
    (["cube"], lambda u, v, w: [u, v, w, *_SMALL]),
    (["certify"], lambda u, v, w: ["--t-bound", "0", *_SMALL]),
    (["oracle", "class"], lambda u, v, w: [u, "--window", "1", "--cap", "300"]),
    (["oracle", "equal"], lambda u, v, w: [u, v, "--window", "1", "--cap", "300"]),
    (["oracle", "scan"], lambda u, v, w: ["--window", "1", "--max-len", "2", "--cap", "3000"]),
    # a radius whose 2n + 1 indices overflow len()
    (["oracle", "class"], lambda u, v, w: [u, "--window", "4611686018427387904", "--cap", "300"]),
    (["oracle", "equal"], lambda u, v, w: [u, v, "--window", "4611686018427387904"]),
    (["oracle", "scan"], lambda u, v, w: ["--window", "4611686018427387904", "--max-len", "2"]),
    (["render"], lambda u, v, w: [u, *_SMALL]),
    (["render"], lambda u, v, w: [u, "--dot", "-", *_SMALL]),
]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "fuzz.pres")


@settings(max_examples=200, deadline=None)
@given(case=_fuzz_case(), command=st.sampled_from(_FUZZ_COMMANDS))
def test_cli_fuzz_exits_cleanly(fuzz_path, case, command):
    # every outcome is an exit code of the contract, never a traceback
    text, words = case
    with open(fuzz_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    name, arguments = command
    argv = [*name, fuzz_path, *arguments(*words)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    assert code in (0, 1, 2, 3)
