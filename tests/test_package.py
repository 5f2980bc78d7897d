import importlib
import json
import runpy
import sys
from pathlib import Path

import pytest

import digar
from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]

SUBMODULES = ("dependence", "errors", "estimation", "experiments", "model", "simulation")


def test_all_names_resolve():
    for name in digar.__all__:
        assert getattr(digar, name, None) is not None, name


def test_all_is_sorted_and_unique():
    names = list(digar.__all__)
    assert names == sorted(set(names))


def test_all_is_the_union_of_the_submodules():
    # The package re-exports exactly what its library modules declare.
    union = set()
    for name in SUBMODULES:
        union.update(importlib.import_module(f"digar.{name}").__all__)
    assert set(digar.__all__) == union


def test_import_loads_no_numpy_and_leaves_environ():
    # The modules load on first use, so digar.cli can choose how numpy starts.
    code = (
        "import json, os, sys; before = dict(os.environ); import digar; "
        "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))"
    )
    assert json.loads(fresh_python("-c", code)) == [False, True]


def _modules_added(argv):
    # The modules `main(argv)` loads in a fresh interpreter beyond those a
    # bare one already holds (a site may load some).
    listing = "import sys; print(); print(' '.join(sorted(sys.modules)))"
    bare = set(fresh_python("-c", listing).split())
    run = fresh_python("-c", f"from digar.cli import main; main({argv!r}); {listing}")
    return set(run.splitlines()[-1].split()) - bare


@pytest.mark.parametrize("argv", [["limits"], ["figure", "vbar"]])
def test_limits_and_figure_start_light(argv):
    # Their work is float arithmetic, so they load none of these modules.
    added = _modules_added(argv)
    assert added.isdisjoint({b"dataclasses", b"inspect", b"numpy", b"json", b"csv"}), added
    assert b"digar.cli" in added


@pytest.mark.parametrize(
    "argv",
    [["estimate", "-T", "200"], ["experiment", "consistency", "-T", "100"], ["simulate", "-T", "50", "--format", "json"]],
)
def test_array_commands_load_no_dataclasses(argv):
    # Every value of the package is a slotted model._Frozen.
    added = _modules_added(argv)
    assert b"dataclasses" not in added and b"numpy" in added, added


def test_star_import_and_dir_in_a_fresh_interpreter():
    code = (
        "import json; ns = {}; exec('from digar import *', ns); del ns['__builtins__']; "
        "import digar; print(json.dumps([sorted(ns), digar.__all__, dir(digar)]))"
    )
    bound, names, listed = json.loads(fresh_python("-c", code))
    assert bound == sorted(names)
    assert set(names) <= set(listed)


def test_version():
    assert isinstance(digar.__version__, str)
    assert digar.__version__


def test_readme_library_example_runs():
    # The README's Library block runs as written against the current API.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["res"].phi_tilde == namespace["res"].phi_hat - namespace["res"].correction


def test_single_path_demo_runs(monkeypatch, capsys):
    script = ROOT / "scripts" / "single_path_demo.py"
    monkeypatch.setattr(sys, "argv", [str(script), "-T", "2000"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    assert "path seed 12345, length 2000" in capsys.readouterr().out
    # At phi = rho = 0.99, V_200 = 85.754129 is still 13 % below vbar: the
    # demo prints the limit as vbar and V_T on a line of its own.
    params = digar.ModelParams(0.99, 0.99, 1.0)
    monkeypatch.setattr(sys, "argv", [str(script), "-T", "200", "--phi", "0.99", "--rho", "0.99"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert f"variance limit vbar       = {digar.vbar_limit(params):.6f}\n" in out
    assert f"V_T at T=200              = {digar.variance_sequence(params, 200)[-1]:.6f}\n" in out
    assert "= 99.010049\n" in out and "= 85.754129\n" in out
