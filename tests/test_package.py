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
