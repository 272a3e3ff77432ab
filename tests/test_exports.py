"""Nothing exported goes unused by the pipeline: every name in the
`__all__` of `mmqa.tensor`, `mmqa.encoders`, `mmqa.model`, `mmqa.formats`,
`mmqa.metrics`, `mmqa.text`, `mmqa.config`, `mmqa.training`, `mmqa.augment`
and `mmqa.gradcheck` is imported by another module of the package. The
benchmark's modules, which call the program's functions directly, count as
users of all but the first two."""

import ast
from pathlib import Path

import pytest

import mmqa
from mmqa import (augment, config, encoders, formats, gradcheck, metrics, model, tensor, text,
                  training)

PACKAGE = Path(mmqa.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def imported_names(exporter: str, paths) -> set:
    """Names that the modules at `paths`, less `exporter` itself, import
    from module `exporter` of the package."""
    names = set()
    for path in paths:
        if path.parent == PACKAGE and path.stem == exporter:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level, node.module) in ((1, exporter), (0, f"mmqa.{exporter}"))):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module, other_dirs", [
    (tensor, []), (encoders, []), (model, [BENCH]), (formats, [BENCH]), (metrics, [BENCH]),
    (text, [BENCH]), (config, [BENCH]), (training, [BENCH]), (augment, [BENCH]),
    (gradcheck, [BENCH])],
    ids=["tensor", "encoders", "model", "formats", "metrics", "text", "config", "training",
         "augment", "gradcheck"])
def test_every_export_is_imported_by_another_module(module, other_dirs):
    exporter = module.__name__.rsplit(".", 1)[1]
    paths = [p for d in (PACKAGE, *other_dirs) for p in d.glob("*.py")]
    assert set(module.__all__) - imported_names(exporter, paths) == set()
