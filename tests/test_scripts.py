"""The scripts under scripts/ run to completion through their main()."""

import importlib.util
import json
import os

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_catalog(capsys, tmp_path):
    script = load_script("certify_catalog")
    assert script.main(["--out", str(tmp_path), "d4:new", "d4:yamada"]) == 0
    assert json.loads((tmp_path / "d4_new.json").read_text())["claim"] == "cancellative-up-to"
    assert json.loads((tmp_path / "d4_yamada.json").read_text())["claim"] == "refused"


def test_worked_examples(capsys):
    script = load_script("worked_examples")
    assert script.main() == 0
    first = capsys.readouterr().out
    assert "verified:" in first
    assert "$ monorev derive double_twist.script\n" in first
    # nothing in the tour depends on where its temporary files live
    assert script.main() == 0
    assert capsys.readouterr().out == first
