"""Nothing exported goes unused by the pipeline: every name in the
`__all__` of `mmqa.tensor` and `mmqa.encoders` is imported by another
module of the package."""

import ast
from pathlib import Path

import pytest

import mmqa
from mmqa import encoders, tensor


def imported_names(exporter: str) -> set:
    """Names that the package's other modules import from module `exporter`."""
    names = set()
    for path in Path(mmqa.__file__).parent.glob("*.py"):
        if path.stem == exporter:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level, node.module) in ((1, exporter), (0, f"mmqa.{exporter}"))):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", [tensor, encoders], ids=["tensor", "encoders"])
def test_every_export_is_imported_by_another_module(module):
    exporter = module.__name__.rsplit(".", 1)[1]
    assert set(module.__all__) - imported_names(exporter) == set()
