"""The public surface: what ``srdf_kit`` exports is exactly what it imports, and what its rate queries return."""

import ast
import importlib
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import srdf_kit
import srdf_kit.errors
from srdf_kit import cli

CONFIGS = Path(__file__).parent.parent / "configs"
README = Path(__file__).parent.parent / "README.md"


def test_every_exported_name_resolves():
    namespace = {}
    exec("from srdf_kit import *", namespace)
    assert [name for name in srdf_kit.__all__ if name not in namespace] == []
    assert len(set(srdf_kit.__all__)) == len(srdf_kit.__all__)


def test_every_imported_class_and_function_is_exported():
    for name in srdf_kit.__all__:   # a front end's names enter the namespace on first access
        getattr(srdf_kit, name)
    public = {
        name for name, obj in vars(srdf_kit).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert sorted(public - set(srdf_kit.__all__)) == []


def test_the_package_srdf_stays_the_function():
    # the submodule of the same name loads with the package, so importing it again binds nothing
    core = importlib.import_module("srdf_kit.srdf")
    assert inspect.isfunction(srdf_kit.srdf) and srdf_kit.srdf is core.srdf


@pytest.mark.parametrize("module", ["errors", "model", "field", "universal", "setopt", "simulate"])
def test_each_module_attribute_is_its_submodule(module):
    assert getattr(srdf_kit, module) is importlib.import_module(f"srdf_kit.{module}")


def test_dir_lists_every_export(monkeypatch):
    for name in srdf_kit.__all__:   # as in a fresh import, where no front-end name has been looked up
        monkeypatch.delitem(vars(srdf_kit), name, raising=False)
    assert set(srdf_kit.__all__) <= set(dir(srdf_kit))


def test_removed_names_stay_removed():
    for name in ("BayesAtomData", "bayes_atom_data", "EmptyAtom", "AmbiguityAtom", "SrdfPoint", "UsrdfPoint",
                 "BlockPartition", "partition"):
        assert name not in srdf_kit.__all__
        assert not hasattr(srdf_kit, name)
    # the tolerance merge of ambiguity atoms: atoms are read off the family's directions
    for name in ("ATOM_TOL", "SWEEP_CHUNK_FLOATS", "_sweep"):
        assert not hasattr(srdf_kit, name) and not hasattr(srdf_kit.universal, name)


def test_readme_quick_start_runs(capsys):
    # the README's one python block, run as written, so a signature change cannot leave it stale
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def rate_query(task, cfg):
    """The public rate query of ``task``, with the arguments the CLI task builds from ``cfg``."""
    if task == "srdf":
        return srdf_kit.srdf, (cli._parse_model(cfg, CONFIGS), cli._parse_sampling(cfg))
    if task == "gmf-srdf":
        return srdf_kit.field_srdf, (cli._parse_field(cfg, CONFIGS), cli._parse_points(cfg))
    rate = srdf_kit.bayes_usrdf if task == "usrdf-bayes" else srdf_kit.nonbayes_usrdf
    return rate, (cli._parse_family(cfg, CONFIGS), cli._parse_sampling(cfg))


@pytest.mark.parametrize("task, config", [
    ("srdf", "three_component_srdf.yaml"),
    ("gmf-srdf", "exp_field_srdf.yaml"),
    ("usrdf-bayes", "corr_family_bayes.yaml"),
    ("usrdf-nonbayes", "corr_family_nonbayes.yaml"),
])
def test_a_rate_curve_has_the_shape_of_its_distortions(tmp_path, task, config):
    assert cli.main([task, "--config", str(CONFIGS / config), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    lo, hi = summary["delta_min"], summary["delta_max"]
    rate, args = rate_query(task, cli._load_config(CONFIGS / config))
    # a row inside the feasible range, and a row from the zero-rate distortion on
    grid = np.array([[lo + f * (hi - lo) for f in (0.01, 0.5, 0.99)], [hi, np.nextafter(hi, math.inf), 2.0 * hi]])
    curve = rate(*args, grid)
    assert isinstance(curve, srdf_kit.RateCurve)
    assert (curve.delta_min, curve.delta_max) == (lo, hi)
    assert isinstance(curve.rate_bits, np.ndarray) and curve.rate_bits.shape == grid.shape
    assert np.all(curve.rate_bits[0] > 0.0) and np.all(curve.rate_bits[1] == 0.0)
    for delta, want in zip(grid.ravel().tolist(), curve.rate_bits.ravel().tolist()):
        one = rate(*args, delta)
        assert type(one.rate_bits) is float and one.rate_bits == pytest.approx(want, rel=1e-12, abs=0.0)
        assert (one.delta_min, one.delta_max) == (lo, hi)


def test_the_rate_is_zero_at_delta_max_when_the_modes_are_small_beside_the_floor():
    # a sampled variance of 1e-8 weakly tied to an unsampled 1: the modes sum to about 1e-8, and the
    # floor plus the modes rounded short of delta_max, which left a rate of up to 4e-9 bits there
    base = np.array([[1e-8, 1e-9], [1e-9, 1.0]])
    family = srdf_kit.affine_family(base, [np.diag([1e-9, 0.0])], [(0.0, 1.0)], prior="uniform", grid_res=3)
    queries = ((srdf_kit.srdf, srdf_kit.CovarianceModel(base)), (srdf_kit.bayes_usrdf, family),
               (srdf_kit.nonbayes_usrdf, family))
    for rate, law in queries:
        hi = rate(law, [1], 1e9).delta_max
        assert rate(law, [1], hi).rate_bits == 0.0
        assert rate(law, [1], np.array([hi, 2.0 * hi])).rate_bits.tolist() == [0.0, 0.0]


def test_every_raise_names_a_package_error():
    # a bare ValueError or IndexError from a public helper is a traceback to a CLI user, not an exit code
    errors = {name for name, obj in vars(srdf_kit.errors).items() if inspect.isclass(obj)}
    stray = []
    for path in sorted(Path(srdf_kit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # PEP 562: the package's module __getattr__ reports a name it does not export by AttributeError
        lookup = [node for fn in tree.body if path.name == "__init__.py" and isinstance(fn, ast.FunctionDef)
                  and fn.name == "__getattr__" for node in ast.walk(fn)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:   # a bare raise re-raises what was caught
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in errors:
                continue
            if isinstance(exc, ast.Name) and exc.id == "AttributeError" and node in lookup:
                continue
            if (isinstance(exc, ast.Name) and exc.id == "AssertionError" and isinstance(node.exc, ast.Call)
                    and ast.literal_eval(node.exc.args[0]).startswith("unreachable")):
                continue
            # an exception object caught earlier, named or held in a container: not a class of any kind
            if not isinstance(node.exc, ast.Call) and not (isinstance(exc, ast.Name) and exc.id[:1].isupper()):
                continue
            stray.append(f"{path.name}:{node.lineno}: raise {ast.unparse(node.exc)}")
    assert stray == []


def test_every_file_is_written_through_create():
    # cli._create writes over an existing artifact in place and trims it: a writer beside it, or a
    # truncating open anywhere, would bring back the truncation it avoids
    stray, writer = [], []
    for path in sorted(Path(srdf_kit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        create = [node for fn in tree.body if path.name == "cli.py" and isinstance(fn, ast.FunctionDef)
                  and fn.name == "_create" for node in ast.walk(fn)]
        writer += create
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "O_TRUNC") or (
                    isinstance(node, ast.Name) and node.id == "O_TRUNC"):
                stray.append(f"{path.name}:{node.lineno}: O_TRUNC")
            if not isinstance(node, ast.Call) or node in create:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in ("write_text", "write_bytes", "savetxt", "save", "savez", "savez_compressed", "tofile"):
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif name == "open":
                # os.open writes by its flags; builtin and io.open take the mode second, Path.open first
                where = ast.unparse(func)
                args = node.args[1:] if where in ("open", "io.open") else node.args
                mode = None if where == "os.open" else (
                    [k.value for k in node.keywords if k.arg == "mode"] or args[:1] or [ast.Constant("r")])[0]
                if not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+")):
                    stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert writer and stray == []


def test_every_private_helper_is_used():
    # a module-level private name that no code in the package loads is a dead helper; strings do not count
    defined, loaded = {}, set()
    for path in sorted(Path(srdf_kit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                names = []
            defined |= {name: f"{path.name}:{node.lineno}" for name in names
                        if name.startswith("_") and not name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    assert len(defined) > 50
    assert sorted(f"{where}: {name}" for name, where in defined.items() if name not in loaded) == []
