"""Nothing exported goes unused by the pipeline: every name in the
`__all__` of `mmqa.tensor`, `mmqa.encoders`, `mmqa.model`, `mmqa.formats`,
`mmqa.metrics`, `mmqa.text`, `mmqa.config`, `mmqa.training`, `mmqa.augment`
and `mmqa.gradcheck` is imported by another module of the package. The
benchmark's modules, which call the program's functions directly, count as
users of all but the first two. The package root exports nothing: each name
is imported from its module."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mmqa
from mmqa import (augment, config, encoders, formats, gradcheck, metrics, model, tensor, text,
                  training)

PACKAGE = Path(mmqa.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


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


def test_package_root_holds_only_its_submodules():
    assert [name for name, value in vars(mmqa).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)] == []


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_in_a_fresh_interpreter(name):
    # the root imports no module, so each one must bring in what it needs
    # itself, and an import cycle fails here; `-c` puts the working
    # directory first on the path, so this copy of the package is imported
    done = subprocess.run([sys.executable, "-c", f"import mmqa.{name}"], cwd=PACKAGE.parent,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
