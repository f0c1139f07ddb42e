"""The layering of the package: flow, elliptic, functionals and kahler reach
the grid only through the backends' public operators and descriptors."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pcflow"


def _attributes(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


@pytest.mark.parametrize("module", ["flow", "elliptic", "functionals", "kahler"])
def test_no_backend_branch_or_private_attribute(module):
    found = [f"line {node.lineno}: .{node.attr}" for node in _attributes(module)
             if node.attr == "kind"
             or (node.attr.startswith("_") and isinstance(node.value, ast.Name)
                 and node.value.id == "geom")]
    assert found == []


def test_flow_reads_no_class_constant():
    # which backend's coefficients are the field is geom.coeffs_shape's to say
    assert [node.lineno for node in _attributes("flow") if node.attr == "lambda_ke"] == []
