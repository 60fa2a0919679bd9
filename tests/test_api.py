"""The names other code reaches the package by: __all__, the benchmark's traced and
by-name bindings, and README's Library example and command lines.

bench/ is read as text with ast, never imported, so these run on every Python
the package supports and catch a deleted name before a traced benchmark run does.
"""
import ast
import importlib
import re
import shlex
from pathlib import Path

import asymclone
from asymclone import cli

ROOT = Path(__file__).resolve().parents[1]


def _assigned(path: Path, name: str) -> ast.expr:
    """The value of the module-level assignment to name in the file at path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _resolves(module: str, attr: str) -> bool:
    return hasattr(importlib.import_module(f"asymclone.{module}"), attr)


def test_every_public_name_resolves():
    missing = [name for name in asymclone.__all__ if not hasattr(asymclone, name)]
    assert not missing
    assert len(set(asymclone.__all__)) == len(asymclone.__all__)


def test_every_traced_target_resolves():
    targets = ast.literal_eval(_assigned(ROOT / "bench" / "tracing.py", "TARGETS"))
    assert targets
    assert [target for target in targets if not _resolves(*target)] == []


def test_every_by_name_binding_resolves():
    # each entry is (module, "attr"), module a package module the bench test file imports by its own name
    entries = _assigned(ROOT / "bench" / "test_bench.py", "BY_NAME_IMPORTS").elts
    bindings = [(entry.elts[0].id, entry.elts[1].value) for entry in entries]
    assert bindings
    assert [binding for binding in bindings if not _resolves(*binding)] == []


def test_readme_library_example_runs():
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_examples_exit_as_documented(tmp_path, monkeypatch):
    calls = re.findall(r"^    asymclone (.*)$", (ROOT / "README.md").read_text(), re.M)
    assert calls
    monkeypatch.chdir(tmp_path)  # sweep --out writes its file to the working directory
    for line in calls:
        argv, _, comment = line.partition("#")
        assert cli.main(shlex.split(argv)) == (2 if "exit 2" in comment else 0), line
