"""The package imports nothing outside the Python standard library."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nsbox"


def test_absolute_imports_are_stdlib_only():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_sources_parse_at_the_declared_python_floor():
    # the tests run on a later Python than the floor pyproject.toml declares,
    # so parse with the floor's grammar to catch newer syntax
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    floor = tuple(int(v) for v in declared.groups())
    assert floor == (3, 10)
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_no_float_code_path():
    # no float literal, no float(...) call and no math.sqrt anywhere in the
    # package; isinstance(v, float), which rejects floats, stays allowed
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), f"{where} float literal"
            elif isinstance(node, ast.Call):
                assert not (isinstance(node.func, ast.Name) and node.func.id == "float"), \
                    f"{where} calls float()"
            elif isinstance(node, ast.Attribute):
                assert not (isinstance(node.value, ast.Name) and node.value.id == "math"
                            and node.attr == "sqrt"), f"{where} uses math.sqrt"
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                assert "sqrt" not in [alias.name for alias in node.names], f"{where} imports sqrt"
