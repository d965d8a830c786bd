import ast
import os
import subprocess
import sys
from pathlib import Path

import mpadmm


def test_every_exported_name_resolves():
    missing = [name for name in mpadmm.__all__ if not hasattr(mpadmm, name)]
    assert missing == []
    assert len(set(mpadmm.__all__)) == len(mpadmm.__all__)


def test_star_import():
    namespace = {}
    exec("from mpadmm import *", namespace)
    assert set(mpadmm.__all__) <= set(namespace)


def test_run_as_module():
    # `python -m mpadmm` runs the command-line interface from a checkout
    src = str(Path(mpadmm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-m", "mpadmm", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: mpadmm")


def test_pythonpath_copy_wins_over_the_checkout(tmp_path):
    # the root conftest.py adds the checkout's src only when no mpadmm is
    # importable, so pytest run with PYTHONPATH naming another copy tests
    # that copy: here a stand-in whose import fails with a known message
    fake = tmp_path / "mpadmm"
    fake.mkdir()
    (fake / "__init__.py").write_text(
        "raise ImportError('the PYTHONPATH copy was imported')\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(root / "tests" / "test_package.py"), "-k", "star_import"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "the PYTHONPATH copy was imported" in out.stdout + out.stderr


def test_no_module_imports_a_name_it_never_uses():
    # no linter ships with the toolchain, so this is the unused-import
    # gate; __init__.py is exempt, its imports being the package's exports
    unused = {}
    for path in sorted(Path(mpadmm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add(alias.asname or alias.name.split(".")[0])
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        names = sorted(imported - read - {"annotations", "*"})
        if names:
            unused[path.name] = names
    assert unused == {}


def _src_trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(Path(mpadmm.__file__).parent.glob("*.py"))}


def test_every_definition_is_named_somewhere():
    # a module-level function or class, or a method, that no code in the
    # package or the benchmark names (as a name, an attribute, an import
    # or a traced-name string such as "update_P") is dead code; dunders
    # are called by Python, and Xoshiro256pp's scalar `normal` and `below`
    # are the stream definitions its matrix helpers are tested against
    root = Path(mpadmm.__file__).resolve().parents[2]
    named = set()
    for path in [*root.joinpath("src").rglob("*.py"),
                 *root.joinpath("perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.update(node.name.split("."))
                named.add(node.asname)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.replace(".", "_").isidentifier()):
                named.update(node.value.split("."))
    exempt = {"Xoshiro256pp.normal", "Xoshiro256pp.below"}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unnamed = []
    for module, tree in _src_trees().items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            found = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m.name)
                          for m in node.body if isinstance(m, defs)]
            unnamed += [f"{module}:{label}" for label, name in found
                        if name not in named and label not in exempt
                        and not (name.startswith("__")
                                 and name.endswith("__"))]
    assert unnamed == []


def test_no_function_has_a_parameter_it_never_reads():
    unread = []
    for module, tree in _src_trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            unread += [f"{module}:{name}({p})" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert unread == []


def test_every_dataclass_field_is_read_somewhere():
    # a field that code in the package, the benchmark, the tools or the
    # tests never loads as an attribute is write-only state; a class
    # passed to `dataclasses.fields` is read whole (bench.TrialRow's
    # fields are the sweep CSV's columns)
    root = Path(mpadmm.__file__).resolve().parents[2]
    loaded, read_whole = set(), set()
    for path in [*root.joinpath("src").rglob("*.py"),
                 *root.joinpath("perfbench").rglob("*.py"),
                 *root.joinpath("tools").rglob("*.py"),
                 *root.joinpath("tests").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
            elif (isinstance(node, ast.Call) and node.args
                  and isinstance(node.args[0], ast.Name)
                  and getattr(node.func, "id",
                              getattr(node.func, "attr", None)) == "fields"):
                read_whole.add(node.args[0].id)
    unread = []
    for module, tree in _src_trees().items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and any("dataclass" in ast.unparse(d)
                            for d in cls.decorator_list)
                    and cls.name not in read_whole):
                continue
            unread += [f"{module}:{cls.name}.{stmt.target.id}"
                       for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in loaded]
    assert unread == []
