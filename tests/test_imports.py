"""What importing the package and running one CLI command load.

Each CLI command runs in a fresh process, so every module it imports is
paid for on every command.  The footprint checks run in fresh interpreters
and read `sys.modules` afterwards.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import leavitt
import leavitt.coeffs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs each [argv, exit code] of sys.argv[1] through cli.main, then prints
# the loaded leavitt modules and dataclasses.
_RUN_COMMANDS = """
import contextlib, io, json, sys
import leavitt.cli
for argv, code in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert leavitt.cli.main(argv) == code, argv
"""

_REPORT = """
print(json.dumps(sorted(m for m in sys.modules if m == "dataclasses" or m.split(".")[0] == "leavitt")))
"""


def _fresh(code, *args, cwd):
    env = dict(os.environ)
    env.pop("LEAVITT_CHAR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_after(commands, cwd):
    """The leavitt modules and dataclasses loaded by one process running commands."""
    proc = _fresh("import json, sys" + _RUN_COMMANDS + _REPORT, json.dumps(commands), cwd=cwd)
    return set(json.loads(proc.stdout))


def test_importing_the_package_loads_no_submodule(tmp_path):
    proc = _fresh("import json, sys\nimport leavitt" + _REPORT, cwd=tmp_path)
    assert json.loads(proc.stdout) == ["leavitt"]


def test_cohn_mode_loads_no_quotient_matrix_or_simplicity_module(tmp_path):
    loaded = loaded_after(
        [[["nf", "x1*y1 + 2", "--mode", "cohn"], 0],
         [["trace", "x1*y1", "--mode", "cohn"], 0],
         [["bracket", "x1", "y1", "--mode", "cohn"], 0]],
        tmp_path,
    )
    assert "leavitt.cohn" in loaded
    assert not loaded & {"leavitt.leavitt", "leavitt.matrix", "leavitt.simplicity", "dataclasses"}


def test_leavitt_mode_loads_no_matrix_or_simplicity_module(tmp_path):
    loaded = loaded_after(
        [[["nf", "x2*y2"], 0], [["trace", "x1*y1", "--n", "3", "--char", "2"], 0], [["bracket", "x1", "y1"], 0]],
        tmp_path,
    )
    assert "leavitt.leavitt" in loaded
    assert not loaded & {"leavitt.matrix", "leavitt.simplicity", "dataclasses"}


def test_verdict_commands_load_no_algebra_module(tmp_path):
    loaded = loaded_after(
        [[["simple", "--n", "3", "--char", "2", "--d", "3"], 0],
         [["grid", "--chars", "0,2", "--n-range", "2:3", "--d-range", "1:2"], 0]],
        tmp_path,
    )
    assert loaded == {"leavitt", "leavitt.cli", "leavitt.parser", "leavitt.coeffs", "leavitt.simplicity"}


def test_grid_probe_loads_no_matrix_module(tmp_path):
    loaded = loaded_after(
        [[["grid", "--chars", "0,2", "--n-range", "2:3", "--d-range", "1:2", "--probe"], 0]], tmp_path
    )
    assert "leavitt.leavitt" in loaded
    assert "leavitt.matrix" not in loaded


def test_no_command_loads_dataclasses(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps([["x[1]*y[1]", "0"], ["0", "1"]]))
    loaded = loaded_after(
        [[["nf", "x1 + y1", "--mode", "matrix", "--d", "2"], 0],
         [["trace", "x1*y1", "--mode", "matrix", "--n", "3", "--char", "2"], 0],
         [["bracket", "x1", "y1", "--mode", "matrix", "--d", "2"], 0],
         [["taud", "m.json", "--n", "3", "--char", "2"], 0],
         [["simple", "--n", "3", "--char", "2", "--d", "3"], 0],
         [["witness", "--n", "3", "--d", "2", "--verify"], 0],
         [["grid", "--chars", "0,2", "--n-range", "2:3", "--d-range", "1:2", "--witnesses", "--probe"], 0],
         [["nf", "x1 +"], 2]],
        tmp_path,
    )
    assert "leavitt.simplicity" in loaded
    assert "dataclasses" not in loaded


def test_exports_match_each_module_all():
    # the parser's expression node classes are public in the module only
    for module, names in leavitt._EXPORTS.items():
        module_all = import_module(f"leavitt.{module}").__all__
        if module == "parser":
            assert set(names) <= set(module_all)
        else:
            assert names == tuple(module_all), module


def test_readme_names_every_module():
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Modules: (.*?)\n\n", readme, flags=re.M | re.S).group(1)
    named = set(re.findall(r"`(\w+)`", paragraph))
    on_disk = {p.stem for p in Path(SRC, "leavitt").glob("*.py")} - {"__init__"}
    assert named == on_disk


def test_every_public_name_is_the_attribute_of_its_submodule():
    for name in leavitt.__all__:
        value = getattr(leavitt, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_the_package_reads_through_to_the_submodule(monkeypatch):
    # Nothing is cached in the package, so a rebinding in the submodule
    # shows through it and no public name enters its namespace.
    stand_in = object()
    monkeypatch.setattr(leavitt.coeffs, "Scalar", stand_in)
    assert leavitt.Scalar is stand_in
    assert not set(vars(leavitt)) & set(leavitt.__all__)


def test_star_import_and_dir_in_a_fresh_process(tmp_path):
    code = (
        "from leavitt import *\n"
        "import leavitt\n"
        "assert all(globals()[name] is getattr(leavitt, name) for name in leavitt.__all__)\n"
        "assert set(leavitt.__all__) <= set(dir(leavitt))\n"
    )
    _fresh(code, cwd=tmp_path)


@pytest.mark.parametrize("name", ["no_such_name", "random_element", "random_word"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'leavitt' has no attribute '{name}'"):
        getattr(leavitt, name)


def test_every_traced_boundary_is_defined_where_the_tracer_patches_it():
    # perfbench's tracer replaces each class-level boundary in its class's
    # own namespace and each function by name in its module; a method that
    # moved to a base class would escape it without an error.
    path = Path(SRC).parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for span, module_name, cls, attr in tracing.BOUNDARIES:
        module = import_module(module_name)
        if cls is not None:
            assert attr in vars(getattr(module, cls)), span
        else:
            assert getattr(vars(module).get(attr), "__module__", None) == module_name, span
