"""The error taxonomy: every class is one a caller can tell apart."""

import ast
import inspect
from pathlib import Path

import darl.errors

ROOT = Path(__file__).resolve().parent.parent


def names_read_by_code():
    """Names that src/darl tests in an ``except`` clause or an ``isinstance`` call."""
    names = set()
    for path in (ROOT / "src" / "darl").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                tested = node.type
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                tested = node.args[1]
            else:
                continue
            for item in tested.elts if isinstance(tested, ast.Tuple) else [tested]:
                if isinstance(item, ast.Name):
                    names.add(item.id)
                elif isinstance(item, ast.Attribute):
                    names.add(item.attr)
    return names


def test_every_error_class_is_documented_or_caught():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    read_by_code = names_read_by_code()
    classes = [name for name, obj in vars(darl.errors).items()
               if inspect.isclass(obj) and obj.__module__ == darl.errors.__name__]
    unused = [name for name in classes if f"`{name}`" not in readme and name not in read_by_code]
    assert unused == [], f"error classes that README does not name and no darl code catches: {unused}"
    assert sorted(classes) == sorted([
        "DarlError", "NumericalDegeneracy", "UnsupportedSampleSize", "SchemaError", "ValidationError",
        "Singularity", "DivisionByZero", "UnknownFixture"])
