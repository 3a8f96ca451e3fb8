"""The package namespace: the exact half is imported eagerly, the numeric
half's names resolve on first read, every name of `__all__` works, and no
public library code is left that only tests call."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import curlmat

LAZY_MODULES = ("curlmat.spectral", "curlmat.evolve")


def _defining_module(name):
    obj = getattr(curlmat, name)
    return importlib.import_module(getattr(obj, "__module__", "curlmat"))


@pytest.mark.parametrize("name", [n for n in curlmat.__all__ if n != "__version__"])
def test_every_public_name_is_its_submodules_object(name):
    module = _defining_module(name)
    assert module.__name__.startswith("curlmat.")
    assert getattr(curlmat, name) is getattr(module, name)


def test_lazy_table_names_only_public_numeric_names():
    assert set(curlmat._LAZY) <= set(curlmat.__all__)
    assert set(curlmat._LAZY.values()) == {"spectral", "evolve"}
    assert len(curlmat._LAZY) == 16
    for name, module in curlmat._LAZY.items():
        assert getattr(curlmat, name).__module__ == f"curlmat.{module}"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from curlmat import *", namespace)
    for name in curlmat.__all__:
        assert namespace[name] is getattr(curlmat, name)


def test_dir_lists_every_public_name():
    assert set(curlmat.__all__) <= set(dir(curlmat))
    assert dir(curlmat) == sorted(dir(curlmat))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        curlmat.no_such_name
    assert not hasattr(curlmat, "no_such_name")
    with pytest.raises(ImportError):
        exec("from curlmat import no_such_name", {})


@pytest.mark.parametrize("name,loaded", [
    (None, []),
    ("GridSpec", ["curlmat.spectral", "numpy"]),
    ("run_rk4", ["curlmat.evolve", "curlmat.spectral", "numpy"]),
])
def test_a_lazy_name_loads_only_its_module(name, loaded):
    # in a fresh interpreter: `import curlmat` loads no numeric module, and
    # reading one name loads the module that defines it and what that needs
    read = f"curlmat.{name}; " if name else ""
    code = (f"import sys, curlmat; {read}"
            "print(sorted(set(sys.modules) & {'numpy', *%r}))" % (LAZY_MODULES,))
    src = str(Path(curlmat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loaded)


ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "curlmat").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions(path):
    """The public top-level functions and classes of a module, and the public
    methods of its classes, as ``name`` or ``Class.method``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f"{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))


def test_no_library_code_only_tests_call():
    # a public definition is exported in `__all__`, or named in `src/curlmat`
    # or `perfbench` beyond the `def` or `class` that makes it: a caller, a
    # traced target or a docstring reference
    named = set()
    for path in LIBRARY:
        named.update(re.findall(r"\w+", re.sub(r"\b(?:def|class)\s+\w+", "", path.read_text())))
    package = [path for path in LIBRARY if path.parent.name == "curlmat"]
    assert len(package) > 5
    unused = [f"{path.stem}.{name}" for path in package for name in _public_definitions(path)
              if name not in curlmat.__all__ and name.rpartition(".")[2] not in named]
    assert unused == []


EIGEN_SOLVERS = {"eigh", "eig", "eigvals", "eigvalsh"}


def test_library_calls_no_eigen_solver():
    # the helicity frame comes from the exact `angular.wigner_d`, so no
    # solver's choice of phase reaches a result; the test oracles keep theirs
    found = []
    for path in sorted((ROOT / "src" / "curlmat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in EIGEN_SOLVERS]
    assert found == []


def test_only_exactnum_reads_the_coefficient_format():
    # an ExactScalar's parts `_re` and `_im` hold exactnum's own coefficient
    # format; every other module goes through its methods
    found = []
    for path in LIBRARY:
        if path.name == "exactnum.py":
            continue
        found += [f"{path.name}:{node.lineno} {node.attr}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in {"_re", "_im"}]
    assert found == []
