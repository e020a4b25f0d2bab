"""No genelm module reaches into another's private names: none imports an
underscore name from another genelm module, or reads one as an attribute of
a genelm module it imported."""

import ast
import pathlib

import pytest

import genelm

SRC = pathlib.Path(genelm.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dotted(node: ast.expr) -> str | None:
    """`a.b.c` of a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def private_reaches(source: str) -> list[str]:
    """The private names that `source`, a module of the package, takes
    from other genelm modules: imported by name or read through a module
    alias."""
    tree = ast.parse(source)
    modules = set()  # local names bound to genelm modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "genelm":
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(alias.name)
                elif node.module in (None, "genelm"):  # from . import kernels as K
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "genelm":
                    modules.add(alias.asname or "genelm")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value)
            if owner and owner.split(".")[0] in modules:
                found.append(f"{owner}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from .kernels import _split", ["_split"]),
    ("from genelm.kernels import Tensor, _SPLIT", ["_SPLIT"]),
    ("from . import kernels as K\nK._SPLIT", ["K._SPLIT"]),
    ("from genelm import kernels\nkernels._split(f)", ["kernels._split"]),
    ("import genelm.kernels\ngenelm.kernels._POOL", ["genelm.kernels._POOL"]),
    ("import genelm.kernels as K\nK._POOL", ["K._POOL"]),
    ("from . import kernels as K\nK.over(n, f)\nx._bwd\nK.__name__", []),
    ("import numpy as np\nnp._core\nfrom os import _exit", []),
])
def test_the_check_finds_what_it_should(source, found):
    assert private_reaches(source) == found
