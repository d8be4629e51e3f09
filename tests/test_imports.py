"""Modules load on first use: which modules each command loads, and the
public names of the package.

Every module-set check runs in a fresh interpreter, since this process has
loaded every module long before.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import monorev
from monorev import reversing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs `monorev.cli.main(argv)` after `import monorev.cli` (argv null: the
# import alone) and prints the exit code, the monorev modules loaded and
# whether `dataclasses` (which imports `inspect`) was.
CHILD = """\
import contextlib, io, json, sys
import monorev.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = monorev.cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "monorev"),
                  "dataclasses" in sys.modules]))
"""

CLI_IMPORT = {"monorev", "monorev.cli", "monorev.catalog", "monorev.presentation",
              "monorev.words"}
NEVER_FOR_KERNEL_COMMANDS = {"monorev.oracle", "monorev.derivation", "monorev.grid"}
# only Certificate is a dataclass, so only the commands that load completeness
# import dataclasses
WITH_DATACLASSES = {"cube", "certify"}

COMMANDS = [
    None,
    ["list"],
    ["show", "d4:new"],
    ["reverse", "d4:new", "t(2)^-1 s3 s3"],
    ["quotient", "d4:new", "s1", "s2"],
    ["cube", "d4:new", "s1", "s2", "s3"],
    ["certify", "d4:new"],
    ["render", "d4:new", "t(2)^-1 s3 s3"],
]

# What the package imported eagerly before modules loaded on first use,
# by the module that defines each name now.  Only the grid view moved: out
# of `reversing`, into `grid`.
PUBLIC = {
    "words": ["EPSILON", "Alphabet", "Generator", "Letter", "UnknownGeneratorError", "Word",
              "WordSyntaxError", "free_reduce", "parse_word", "shift_word"],
    "presentation": ["DEFAULT_FUEL", "AmbiguousComplementError", "ComplementPair",
                     "Param", "PatternLetter", "Presentation", "RelationInstance", "Schema",
                     "SchemaError", "check_complemented", "instances_for_pair",
                     "instantiate_window", "left_complement", "load_presentation",
                     "materialize_relations", "right_complement", "save_presentation"],
    "reversing": ["Cycles", "Diverged", "Empty", "ReversalStep", "ReversalTrace", "Stuck",
                  "Terminal", "left_reverse", "reverse_quotient", "right_reverse"],
    "grid": ["ReversingGrid", "build_grid", "grid_to_dot"],
    "completeness": ["Certificate", "CubeResult", "SweepCapError", "certify",
                     "cube_condition", "cube_traces", "enumerate_word_triples"],
    "derivation": ["CancelStep", "DerivationError", "DerivationScript", "InsertStep",
                   "RelationStep", "ScriptResult", "apply_step", "format_script",
                   "parse_script", "shift_script", "substitute_t", "t_expression",
                   "verify_script", "verify_translation_product"],
    "oracle": ["OracleCapError", "ScanReport", "ScanWitness", "cancellation_scan",
               "equivalence_class", "monoid_equal"],
}


def test_each_command_loads_what_it_runs():
    env = {**os.environ, "PYTHONPATH": SRC}
    children = [subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for argv in COMMANDS]
    loaded = {}
    for argv, child in zip(COMMANDS, children):
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        code, modules, dataclasses = json.loads(out)
        assert code in (None, 0), (argv, code)
        command = argv[0] if argv else None
        assert dataclasses == (command in WITH_DATACLASSES), command
        loaded[command] = set(modules)
    assert loaded.pop(None) == CLI_IMPORT
    assert loaded.pop("list") == loaded.pop("show") == CLI_IMPORT
    assert "monorev.grid" in loaded.pop("render")
    for command, modules in loaded.items():
        assert "monorev.reversing" in modules, command
        assert not modules & NEVER_FOR_KERNEL_COMMANDS, command


@pytest.mark.parametrize("module,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_resolves_to_its_definition(module, name):
    assert getattr(monorev, name) is getattr(importlib.import_module(f"monorev.{module}"), name)
    assert name in dir(monorev) and name in monorev.__all__


def test_package_attributes():
    assert monorev.catalog is importlib.import_module("monorev.catalog")
    assert "catalog" in dir(monorev) and "catalog" in monorev.__all__
    assert reversing.DEFAULT_FUEL is monorev.DEFAULT_FUEL
    assert issubclass(monorev.SweepCapError, monorev.CapError)
    assert issubclass(monorev.OracleCapError, monorev.CapError)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        monorev.no_such_name
