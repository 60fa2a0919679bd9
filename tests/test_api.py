"""The names other code reaches the package by: __all__, the benchmark's traced and
by-name bindings, README's Library example and command lines, and what a start-up
loads.

bench/ is read as text with ast, never imported, so these run on every Python
the package supports and catch a deleted name before a traced benchmark run does.
"""
import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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


PUBLIC_NAMES = [
    "BellCoefficients", "BlochVector", "DensityMatrix", "GateApplication", "InfeasibleScalingError", "PrepState",
    "ScalingPair", "StateVector", "apply_circuit", "apply_cnot", "apply_gate", "apply_hadamard", "apply_ry",
    "apply_rz", "basis_state", "bell_basis", "bell_components", "bell_decompose", "bell_output", "bloch_vector",
    "cloning_network", "feasibility", "fidelity_pure", "named_state", "overlap", "partial_trace",
    "prepare_two_qubit", "random_state", "reorder", "run_cloner", "run_pauli_cloner", "single_qubit", "solve_prep",
    "solve_rows", "tensor", "to_density", "verify_scaling", "__version__",
]


def test_the_package_surface_is_served_from_the_home_modules():
    assert asymclone.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(asymclone))
    star = {}
    exec("from asymclone import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC_NAMES)
    for name in PUBLIC_NAMES[:-1]:
        home = importlib.import_module(star[name].__module__)
        assert star[name] is getattr(home, name) is getattr(asymclone, name), name
    assert star["__version__"] == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        asymclone.no_such_name
    assert not hasattr(asymclone, "no_such_name")
    assert not hasattr(cli, "no_such_name")


# each child ends by printing to stderr whether numpy's core was loaded
_IMPORT = "import sys\n{}\nprint('numpy._core' in sys.modules, file=sys.stderr)"
_RUN_CLI = _IMPORT.format(
    "import runpy\ntry:\n    runpy.run_module('asymclone.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n    pass"
)
# the body of the console script pip writes for asymclone.cli:main
_CONSOLE_SCRIPT = _IMPORT.format(
    "from asymclone.cli import main\ntry:\n    sys.exit(main())\nexcept SystemExit:\n    pass"
)


@pytest.mark.parametrize(
    "code, argv, loads_numpy",
    [
        pytest.param(_IMPORT.format("import asymclone"), [], False, id="import asymclone"),
        pytest.param(
            _IMPORT.format("import asymclone.cli\nasymclone.cli.build_parser()"), [], False, id="build_parser()"
        ),
        pytest.param(_RUN_CLI, ["--help"], False, id="--help"),
        pytest.param(_RUN_CLI, [], False, id="no arguments"),
        pytest.param(_RUN_CLI, ["solve", "abc", "0.5"], False, id="solve abc 0.5"),
        pytest.param(_RUN_CLI, ["sweep", "--step", "5"], False, id="sweep --step 5"),
        pytest.param(_RUN_CLI, ["verify", "--trials", "0"], False, id="verify --trials 0"),
        # a named or malformed --state value before a bad number
        pytest.param(_RUN_CLI, ["clone", "--state", "+", "--s0", "abc", "--s1", "0"], False, id="clone bad --s0"),
        pytest.param(_RUN_CLI, ["clone", "--state", "foo", "--s0", "1", "--s1", "0"], False, id="clone bad --state"),
        # a 4-float --state is normalized against the package's zero-norm floor, which loads no module
        pytest.param(
            _RUN_CLI, ["clone", "--state", "1,0,0,0", "--s0", "abc", "--s1", "0"], False, id="clone 4-float --state"
        ),
        pytest.param(_CONSOLE_SCRIPT, ["--help"], False, id="console script --help"),
        pytest.param(_CONSOLE_SCRIPT, ["solve", "abc", "0.5"], False, id="console script solve abc 0.5"),
        # a feasible solve computes, so the checks above cannot pass by never seeing numpy
        pytest.param(_RUN_CLI, ["solve", "0.5", "0.3"], True, id="solve 0.5 0.3"),
    ],
)
def test_a_start_loads_numpy_only_to_compute(code, argv, loads_numpy):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60)
    *_, last = child.stderr.splitlines()
    assert last == str(loads_numpy), child.stderr
    assert "Traceback" not in child.stderr


def test_a_failed_lazy_load_is_rerun_on_the_next_read():
    # an eager import drops a module whose code raised, so the next import fails the same way
    code = (
        "import sys\nsys.modules['numpy'] = None\nimport asymclone\nfor _ in range(3):\n    try:\n"
        "        asymclone.feasibility\n    except ModuleNotFoundError as exc:\n        print(exc.name)\n"
        "del sys.modules['numpy']\nprint(asymclone.feasibility(0.6, 0.5).feasible)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert child.stdout.split() == ["numpy", "numpy", "numpy", "True"], child.stderr


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
