"""Spans around calls into the program's public functions, kept in memory.

`Tracer.install` rebinds each traced function in every `mmqa` module that
imported it (so `gru_step` is traced when `model` calls it, too) and each
traced method on its class; `uninstall` restores the originals. Nothing
inside `src/` records anything: every span starts and ends in this file.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name); a dotted attribute is a method.
TRACED = (
    ("mmqa.tensor", "Tape.backward", "tensor.backward"),
    ("mmqa.encoders", "rnn_forward", "encoders.rnn_forward"),
    ("mmqa.encoders", "gru_step", "encoders.gru_step"),
    ("mmqa.encoders", "guided_attend", "encoders.guided_attend"),
    ("mmqa.encoders", "self_attend", "encoders.self_attend"),
    ("mmqa.model", "Model.encode", "model.encode"),
    ("mmqa.model", "Model.loss", "model.loss"),
    ("mmqa.model", "Model.generate", "model.generate"),
    ("mmqa.model", "decode_step", "model.decode_step"),
    ("mmqa.text", "resolve_token", "text.resolve_token"),
    ("mmqa.training", "train", "training.train"),
    ("mmqa.training", "evaluate", "training.evaluate"),
    ("mmqa.training", "Adam.step", "training.adam_step"),
    ("mmqa.metrics", "bleu", "metrics.bleu"),
    ("mmqa.metrics", "rouge_l_corpus", "metrics.rouge_l"),
    ("mmqa.metrics", "cider", "metrics.cider"),
    ("mmqa.formats", "save_checkpoint", "formats.save_checkpoint"),
    ("mmqa.formats", "load_checkpoint", "formats.load_checkpoint"),
    ("mmqa.formats", "load_dataset", "formats.load_dataset"),
    ("mmqa.formats", "load_features", "formats.load_features"),
    ("mmqa.augment", "expand_basic", "augment.expand"),
    ("mmqa.augment", "expand_per_turn", "augment.expand"),
    ("mmqa.augment", "expand_shuffle", "augment.expand"),
    ("mmqa.gradcheck", "primitive_checks", "gradcheck.primitive_checks"),
)
OOV_SPAN = "text.oov_lookup"


class Tracer:
    """Spans as parallel arrays: name id, start, end and parent index (-1)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict = {}
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, original, name: str):
        name_id = self._name_id(name)
        if name == "text.resolve_token":
            oov_id = self._name_id(OOV_SPAN)

            def traced(vocab, token):
                index = self.open(name_id if vocab.id(token) is not None else oov_id)
                try:
                    return original(vocab, token)
                finally:
                    self.close(index)
        else:
            def traced(*args, **kwargs):
                index = self.open(name_id)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(index)
        return functools.wraps(original)(traced)

    def install(self) -> None:
        for module_name, _, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mmqa" or n.startswith("mmqa.")]
        for module_name, attribute, name in TRACED:
            owner = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(owner, attribute)
            traced = self._wrap(original, name)
            for module in modules:
                if getattr(module, attribute, None) is original:
                    self._undo.append((module, attribute, original))
                    setattr(module, attribute, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """One 'name<TAB>start<TAB>end<TAB>parent' line per span, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.starts[i]!r}\t"
                         f"{self.ends[i]!r}\t{self.parents[i]}\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per span name: call count, total time and self time, in seconds.

    A span's self time is its duration minus the durations of its children.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self.count: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        names, name_of, parents = tracer.names, tracer.name_of, tracer.parents
        durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child_time = [0.0] * len(durations)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        for i, duration in enumerate(durations):
            name = names[name_of[i]]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child_time[i]

    def calls(self, name: str) -> int:
        return self.count.get(name, 0)

    def mean(self, name: str) -> float:
        """Mean duration per call in seconds; 0 when never called."""
        calls = self.count.get(name, 0)
        return self.total[name] / calls if calls else 0.0

    def _total_where(self, name: str, ancestor: str, inside: bool) -> float:
        t = self._tracer
        if name not in t._name_ids:
            return 0.0
        target = t._name_ids[name]
        outer = t._name_ids.get(ancestor, -1)
        total = 0.0
        for i in range(len(t.starts)):
            if t.name_of[i] != target:
                continue
            parent = t.parents[i]
            while parent >= 0 and t.name_of[parent] != outer:
                parent = t.parents[parent]
            if (parent >= 0) == inside:
                total += t.ends[i] - t.starts[i]
        return total

    def total_within(self, name: str, ancestor: str) -> float:
        """Total time of `name` spans that run inside an `ancestor` span."""
        return self._total_where(name, ancestor, True)

    def top_level_total(self, name: str) -> float:
        """Total time of `name` spans with no `name` span around them."""
        return self._total_where(name, name, False)

    def module_self_time(self) -> dict:
        """Self time summed per module: the span name up to its first dot."""
        out: dict = {}
        for name, value in self.self_time.items():
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + value
        return out
