"""One benchmark run of one workload, in a process of its own.

`bench/run.py` starts this module with the BLAS and OpenMP pools pinned to
one thread. A run sets its inputs up several times (the median is
`setup_s`), warms up, runs whole rounds of the workload until `--seconds`
have passed (at least `min_rounds`), checks the outputs against
`bench/oracles.py`, and prints one JSON result line last.

Untraced runs (`--trace 0`) report the end-to-end metrics. Traced runs
(`--trace 1`) run one untraced round for reference, then traced rounds, and
report the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from mmqa import cli, gradcheck, text
from mmqa.augment import expand_basic, expand_shuffle
from mmqa.config import TrainingConfig
from mmqa.formats import feature_path, load_dataset, load_features, model_from_checkpoint
from mmqa.model import Model
from mmqa.tensor import Tape, grad_check
from mmqa.text import build_vocabulary
from mmqa.training import train

from bench import checks, inputs, oracles
from bench.speed import SpeedProbe
from bench.tracing import OOV_SPAN, Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_PROBES = 10
GREEDY_SAMPLE = 8
TAPE_SAMPLE = 4
# The speed probe runs after every PROBE_EVERY finite-difference forwards.
PROBE_EVERY = 8
# Checks of smaller tensors take under 0.2 s, too short to time steadily on
# a host whose speed changes within a second; they are not latency samples.
LATENCY_MIN_COORDINATES = 64

# One tensor of each parameter group of the gradient check's toy model, so
# that the subset spans every encoder, attention block, the embedding table
# and the decoder.
GRADCHECK_SUBSET = (
    "embedding.matrix",
    "question_rnn.fwd.bz", "question_attn.conv1_b",
    "summary_rnn.bwd.bh", "summary_attn.w_guide",
    "history_rnn.fwd.br", "history_attn.w_guide",
    "flow_rnn.fwd.bz", "flow_attn.w_guide",
    "rgb_rnn.bwd.bz", "rgb_attn.w_guide",
    "audio_rnn.fwd.bh", "audio_attn.w_guide",
    "decoder.l1.bz", "decoder.l2.bh", "decoder.proj.b",
)


def quiet(fn, *args):
    """Call `fn` with the program's console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def attach_features(examples, features_dir: str) -> None:
    for example in examples:
        for modality in inputs.FEATURE_WIDTHS:
            path = feature_path(features_dir, example.video_id, modality)
            setattr(example, modality, load_features(path))


class LossRecorder:
    """Records the value and start time of every `Model.loss` call, and
    takes a speed-probe sample at the start of each call.

    In `mmqa train` consecutive loss calls of one epoch are one training
    example apart, so their start-time differences, less the probe sample
    taken in between, are per-example step latencies: forward, backward,
    gradient accumulation and, at the end of each batch, the Adam step.
    """

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe
        self.values: list[float] = []
        self.starts: list[float] = []
        self.sample_of: list[int] = []

    def __enter__(self):
        original = self.original = Model.loss
        values, starts, sample_of, probe = self.values, self.starts, self.sample_of, self.probe

        def loss(model, *args, **kwargs):
            starts.append(time.perf_counter())
            if probe is not None:
                sample_of.append(probe.sample())
            out = original(model, *args, **kwargs)
            values.append(float(out.data[0]))
            return out

        Model.loss = loss
        return self

    def __exit__(self, *exc):
        Model.loss = self.original
        return False

    def step_latencies(self, per_epoch: int, batch_size: int) -> list[float]:
        """Forward-and-backward latency of each example, at nominal speed when
        probed. An example that ends a batch is left out, since its interval
        also holds the Adam step, and so is the last of an epoch, whose
        interval holds validation."""
        out = []
        for first in range(0, len(self.starts), per_epoch):
            for i in range(first, min(first + per_epoch, len(self.starts)) - 1):
                if (i - first) % batch_size == batch_size - 1:
                    continue
                interval = self.starts[i + 1] - self.starts[i]
                if self.probe is None:
                    out.append(interval)
                else:
                    j = self.sample_of[i]
                    out.append(self.probe.scale(interval - self.probe.samples[j], j))
        return out


def tape_costs(model, examples) -> dict:
    """Tape size and per-node forward and recording cost of `Model.loss`."""
    nodes, taped, plain = [], [], []
    for example in examples:
        for _ in range(3):
            start = time.perf_counter()
            model.loss(example)
            plain.append(time.perf_counter() - start)
            start = time.perf_counter()
            with Tape() as tape:
                model.loss(example)
            taped.append(time.perf_counter() - start)
        nodes.append(len(tape))
    per_example = sum(nodes) / len(nodes)
    t_plain = statistics.median(plain)
    t_taped = statistics.median(taped)
    return {
        "tensor.nodes_per_example": (per_example, "count"),
        "tensor.record_us_per_node": ((t_taped - t_plain) / per_example * 1e6, "us"),
        "tensor.forward_us_per_op": (t_plain / per_example * 1e6, "us"),
    }


def layer_metrics(summary) -> dict:
    """Per-layer metrics every workload reports; 0 where a layer is not called."""
    encodes = summary.calls("model.encode")

    def per_example(*names):
        return sum(summary.calls(n) for n in names) / encodes if encodes else 0.0

    def ms(name):
        return summary.mean(name) * 1e3

    def us(name):
        return summary.mean(name) * 1e6

    commands = summary.calls("cli.main")
    return {
        "tensor.backward_ms_per_example": (ms("tensor.backward"), "ms"),
        "encoders.rnn_forward_ms": (ms("encoders.rnn_forward"), "ms"),
        "encoders.rnn_forward_calls_per_example": (per_example("encoders.rnn_forward"), "count"),
        "encoders.gru_step_us": (us("encoders.gru_step"), "us"),
        "encoders.gru_step_calls_per_example": (per_example("encoders.gru_step"), "count"),
        "encoders.guided_attend_us": (us("encoders.guided_attend"), "us"),
        "encoders.self_attend_us": (us("encoders.self_attend"), "us"),
        "model.encode_ms_per_example": (ms("model.encode"), "ms"),
        "model.loss_ms_per_example": (ms("model.loss"), "ms"),
        "model.decode_step_us": (us("model.decode_step"), "us"),
        "model.decode_steps_per_example": (per_example("model.decode_step"), "count"),
        "model.generate_ms_per_example": (ms("model.generate"), "ms"),
        "text.resolve_calls_per_example": (per_example("text.resolve_token", OOV_SPAN), "count"),
        "text.oov_lookups_per_example": (per_example(OOV_SPAN), "count"),
        "text.oov_ms_per_lookup": (ms(OOV_SPAN), "ms"),
        "training.adam_step_ms": (ms("training.adam_step"), "ms"),
        "training.validation_s_per_epoch": (0.0, "s"),
        "metrics.bleu_ms": (ms("metrics.bleu"), "ms"),
        "metrics.rouge_l_ms": (ms("metrics.rouge_l"), "ms"),
        "metrics.cider_ms": (ms("metrics.cider"), "ms"),
        "formats.save_checkpoint_ms": (ms("formats.save_checkpoint"), "ms"),
        "formats.checkpoint_mb": (0.0, "MB"),
        "formats.load_checkpoint_ms": (ms("formats.load_checkpoint"), "ms"),
        "formats.load_dataset_ms": (ms("formats.load_dataset"), "ms"),
        "formats.load_features_ms": (ms("formats.load_features"), "ms"),
        "augment.expand_ms": (summary.top_level_total("augment.expand") / commands * 1e3
                              if commands else 0.0, "ms"),
        "gradcheck.forward_ms": (ms("gradcheck.forward"), "ms"),
        "cli.self_ms": (summary.self_time.get("cli.main", 0.0) / commands * 1e3
                        if commands else 0.0, "ms"),
    }


class TrainWorkload:
    """`mmqa train` on the synthetic corpus; latency is one training step."""

    # Three rounds, so that the median throughput of a run is not the mean
    # of one round in a fast phase of the host and one in a slow phase.
    min_rounds = 3

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.failures: list[str] = []
        self.checkpoints: list[Path] = []
        self.losses: list[list[float]] = []

    def setup(self, directory: Path) -> None:
        self.inputs = inputs.make_train_inputs(self.seed, str(directory))
        cfg = self.inputs.config["training"]
        self.epochs = cfg["max_epochs"]
        self.batch_size = cfg["batch_size"]
        self.max_len = cfg["max_generate_len"]
        self.examples = [ex for d in load_dataset(self.inputs.train_path)
                         for ex in expand_shuffle(d, cfg["factor"], cfg["seed"])]
        attach_features(self.examples, self.inputs.features_dir)
        self.expected_examples = oracles.shuffle_expansion_size(
            [len(d.turns) for d in self.inputs.dialogs], cfg["factor"])

    def warm_up(self) -> None:
        # One short epoch at the full vocabulary, so that the first timed
        # round does not pay for first-time allocations of the
        # vocabulary-sized gradient and optimizer arrays.
        vocab = build_vocabulary(inputs.corpus_tokens(self.inputs.dialogs))
        model = Model.create(np.random.default_rng(0), vocab, **inputs.MODEL)
        cfg = TrainingConfig(max_epochs=1, batch_size=8, max_generate_len=self.max_len)
        train(model, self.examples[:16], self.examples[:2], cfg)

    def round(self, index: int, tracer, probe) -> dict:
        ckpt = self.work_dir / f"model-{index}.ckpt"
        ops = self.expected_examples * self.epochs
        with LossRecorder(probe) as recorder:
            start = time.perf_counter()
            with span(tracer, "cli.main"):
                code = quiet(cli.main, ["train", "--config", self.inputs.config_path,
                                        "--out", str(ckpt)])
            wall = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"mmqa train exited {code}")
            return dict(attempted=ops, failed=ops, ops=ops, wall_s=wall, seconds=wall,
                        latencies_s=[])
        self.checkpoints.append(ckpt)
        self.losses.append(recorder.values)
        seconds = probe.region(start, start + wall) if probe is not None else wall
        return dict(attempted=ops, failed=0, ops=ops, wall_s=wall, seconds=seconds,
                    latencies_s=recorder.step_latencies(self.expected_examples,
                                                        self.batch_size))

    def check(self) -> None:
        if len(self.examples) != self.expected_examples:
            self.failures.append(f"program expanded {len(self.examples)} examples, "
                                 f"the expansion formula gives {self.expected_examples}")
        for losses in self.losses:
            self.failures += checks.training_loss_errors(
                losses, self.expected_examples, self.epochs)
        if not self.checkpoints:
            return
        first = self.checkpoints[0]
        for other in self.checkpoints[1:]:
            for suffix in ("", ".vocab"):
                a, b = Path(f"{first}{suffix}"), Path(f"{other}{suffix}")
                if a.read_bytes() != b.read_bytes():
                    self.failures.append(f"{b.name} differs from {a.name}")

        model = model_from_checkpoint(str(first))[0]
        vocab = model.vocab
        example = next(ex for ex in self.examples if ex.history)
        sentences = [example.question, example.answer, example.summary]
        sentences += [s for pair in example.history for s in pair]
        used = {vocab.id(t) for s in sentences for t in s}
        row, column = vocab.id(example.question[0]), vocab.id(example.answer[0])
        coordinates = [("embedding.matrix", (row, c)) for c in (0, 1, 2)]
        coordinates += [("decoder.proj.w", (r, column)) for r in (0, 1, 2)]
        analytic, numeric, grads = checks.gradient_coordinates(model, example, coordinates)
        self.failures += checks.gradient_errors(analytic, numeric)
        unused = max(set(range(oracles.RESERVED, len(vocab))) - used)
        self.failures += checks.zero_row_errors(grads["embedding.matrix"], unused)

    def notes(self) -> str:
        n = self.expected_examples
        losses = self.losses[0]
        vocab = len(build_vocabulary(inputs.corpus_tokens(self.inputs.dialogs)))
        return (f"train: vocabulary {vocab}, {n} examples per epoch; mean loss "
                f"epoch 1 {sum(losses[:n]) / n:.6f}, epoch {self.epochs} "
                f"{sum(losses[-n:]) / n:.6f}")

    def per_layer(self, summary) -> dict:
        out = {}
        trains = summary.calls("training.train")
        if trains:
            validation = summary.total_within("model.generate", "training.train")
            out["training.validation_s_per_epoch"] = (validation / (trains * self.epochs), "s")
        out["formats.checkpoint_mb"] = (self.checkpoints[0].stat().st_size / 1e6, "MB")
        model = model_from_checkpoint(str(self.checkpoints[0]))[0]
        out.update(tape_costs(model, self.examples[:TAPE_SAMPLE]))
        return out


class EvalWorkload:
    """`mmqa eval` on the held-out corpus, then `Model.generate` timed once
    per example."""

    min_rounds = 2

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.failures: list[str] = []
        self.score_files: list[Path] = []
        self.answers: list[list] = []

    def setup(self, directory: Path) -> None:
        self.inputs = inputs.make_eval_inputs(self.seed, str(directory))
        self.model = model_from_checkpoint(self.inputs.ckpt_path)[0]
        self.examples = [expand_basic(d)[0] for d in load_dataset(self.inputs.data_path)]
        attach_features(self.examples, self.inputs.features_dir)

    def warm_up(self) -> None:
        for example in self.examples[:2]:
            self.model.generate(example, inputs.MAX_LEN)

    def round(self, index: int, tracer, probe) -> dict:
        scores = self.work_dir / f"scores-{index}.tsv"
        n = len(self.examples)
        probed = (probe.before_each_call(Model, "generate") if probe is not None
                  else contextlib.nullcontext())
        with probed:
            start = time.perf_counter()
            with span(tracer, "cli.main"):
                code = quiet(cli.main, [
                    "eval", "--ckpt", self.inputs.ckpt_path,
                    "--data", self.inputs.data_path,
                    "--features", self.inputs.features_dir, "--out", str(scores),
                    "--max-len", str(inputs.MAX_LEN)])
            wall = time.perf_counter() - start
        seconds = probe.region(start, start + wall) if probe is not None else wall
        failed = 0
        if code != 0:
            self.failures.append(f"mmqa eval exited {code}")
            failed = n
        else:
            self.score_files.append(scores)
        answers, latencies = [], []
        for example in self.examples:
            start = time.perf_counter()
            answers.append(self.model.generate(example, inputs.MAX_LEN))
            latency = time.perf_counter() - start
            latencies.append(probe.scale(latency, probe.sample()) if probe is not None
                             else latency)
        self.answers.append(answers)
        return dict(attempted=2 * n, failed=failed, ops=n, wall_s=wall, seconds=seconds,
                    latencies_s=latencies)

    def check(self) -> None:
        answers = self.answers[0]
        if any(a != answers for a in self.answers[1:]):
            self.failures.append("generated answers differ between rounds")
        if self.score_files:
            golds = [ex.answer for ex in self.examples]
            table = checks.read_score_table(str(self.score_files[0]))
            self.failures += checks.score_table_errors(table, answers, golds)
            first = self.score_files[0].read_bytes()
            if any(f.read_bytes() != first for f in self.score_files[1:]):
                self.failures.append("score tables differ between rounds")

        vocab = self.model.vocab
        with open(self.inputs.ckpt_path + ".vocab", encoding="utf-8") as fh:
            tokens = ["<pad>", "<sos>", "<eos>", "<unk>"] + fh.read().splitlines()
        resolved = {w: text.resolve_token(vocab, w) for w in self.inputs.misspellings}
        self.failures += checks.oov_errors(tokens, resolved)

        stride = len(self.examples) // GREEDY_SAMPLE
        for i in range(0, stride * GREEDY_SAMPLE, stride):
            ids = [vocab.id(t) for t in answers[i]]
            rows = checks.greedy_logits(self.model, self.examples[i], ids, inputs.MAX_LEN)
            self.failures += [f"example {i}: {e}" for e in
                              checks.greedy_errors(rows, ids, inputs.MAX_LEN)]

    def notes(self) -> str:
        lengths = Counter(len(a) for a in self.answers[0])
        table = checks.read_score_table(str(self.score_files[0])) if self.score_files else {}
        return (f"eval: answer lengths {dict(sorted(lengths.items()))}; "
                f"{len(self.inputs.misspellings)} distinct misspellings; scores "
                + " ".join(f"{k} {v:.4f}" for k, v in table.items()))

    def per_layer(self, summary) -> dict:
        out = {"formats.checkpoint_mb": (os.path.getsize(self.inputs.ckpt_path) / 1e6, "MB")}
        out.update(tape_costs(self.model, self.examples[:TAPE_SAMPLE]))
        return out


class GradcheckWorkload:
    """`primitive_checks` plus central-difference `grad_check` over
    GRADCHECK_SUBSET of the composed check's toy model."""

    min_rounds = 2

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.failures: list[str] = []

    def setup(self, directory: Path) -> None:
        # The composed check's own toy model and example, so that this
        # workload measures exactly the forwards criterion 1 runs.
        self.model, self.example = gradcheck._toy_setup()
        params = self.model.parameters()
        self.subset = [(name, params[name]) for name in GRADCHECK_SUBSET]
        self.coordinates = sum(p.data.size for _, p in self.subset)

    def warm_up(self) -> None:
        gradcheck.primitive_checks()
        self.model.loss(self.example)

    def round(self, index: int, tracer, probe) -> dict:
        latencies = []
        state = {"taped": False, "forwards": 0}

        def loss(_x):
            if state["taped"]:
                # grad_check's first call records the analytic gradient
                state["taped"] = False
                with span(tracer, "gradcheck.taped_forward"):
                    return self.model.loss(self.example)
            with span(tracer, "gradcheck.forward"):
                out = self.model.loss(self.example)
            state["forwards"] += 1
            if probe is not None and state["forwards"] % PROBE_EVERY == 0:
                probe.sample()
            return out

        start = time.perf_counter()
        errors = {f"primitive/{n}": e for n, e in gradcheck.primitive_checks()}
        for name, tensor in self.subset:
            state["taped"] = True
            tensor_start = time.perf_counter()
            errors[f"model/{name}"] = grad_check(loss, tensor)
            tensor_end = time.perf_counter()
            if tensor.data.size >= LATENCY_MIN_COORDINATES:
                latencies.append(probe.region(tensor_start, tensor_end) if probe is not None
                                 else tensor_end - tensor_start)
        wall = time.perf_counter() - start
        forwards = state["forwards"]
        self.failures += checks.gradcheck_errors(errors, forwards, self.coordinates,
                                                 gradcheck.TOLERANCE)
        return dict(attempted=self.coordinates, failed=0, ops=forwards, wall_s=wall,
                    seconds=probe.region(start, start + wall) if probe is not None else wall,
                    latencies_s=latencies)

    def check(self) -> None:
        pass  # every round checks its own errors and forward count

    def notes(self) -> str:
        return (f"gradcheck: {self.coordinates} coordinates of {len(self.subset)} "
                f"tensors per round")

    def per_layer(self, summary) -> dict:
        return tape_costs(self.model, [self.example])


WORKLOADS = {"train": TrainWorkload, "eval": EvalWorkload, "gradcheck": GradcheckWorkload}


def latency_ms(rounds, q: float) -> float:
    """Median over rounds of each round's q-th latency percentile, in ms.

    Every round holds the same operations, so taking the percentile per
    round keeps it from depending on how many rounds fitted in the run.
    """
    return 1e3 * statistics.median(float(np.percentile(r["latencies_s"], q)) for r in rounds)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, work_dir)
        probe = None if trace else SpeedProbe()
        setup_times = []
        for i in range(SETUP_REPEATS):
            directory = work_dir / f"inputs-{i}"
            setup_probe = SpeedProbe()
            for _ in range(SETUP_PROBES):
                setup_probe.sample()
            start = time.perf_counter()
            workload.setup(directory)
            raw = time.perf_counter() - start
            for _ in range(SETUP_PROBES):
                setup_probe.sample()
            setup_times.append(setup_probe.normalise(raw))
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(directory, ignore_errors=True)
        workload.warm_up()

        rounds = []
        tracer = None
        if trace:
            rounds.append(workload.round(0, None, None))
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            minimum = 1 if trace else workload.min_rounds
            while (len(rounds) - trace < minimum
                   or time.perf_counter() - start < seconds):
                rounds.append(workload.round(len(rounds), tracer, probe))
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.check()

        result = {
            "correct": not workload.failures,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
        }
        if trace:
            summary = tracer.summary()
            metrics = layer_metrics(summary)
            metrics.update(workload.per_layer(summary))
            metrics["tracing.overhead_s"] = (rounds[1]["wall_s"] - rounds[0]["wall_s"], "s")
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write(str(TRACE_DIR / f"trace-{name}-seed{seed}.tsv.gz"))
            shares = summary.module_self_time()
            total = sum(shares.values())
            print("module self-time shares: " + ", ".join(
                f"{m} {v / total:.1%}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1])))
            result["metrics"] = {k: metric(v, u) for k, (v, u) in sorted(metrics.items())}
        else:
            result["metrics"] = {
                "setup_s": metric(statistics.median(setup_times), "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "ops_per_s": metric(statistics.median(r["ops"] / r["seconds"] for r in rounds),
                                    "1/s"),
                "latency_ms_p50": metric(latency_ms(rounds, 50), "ms"),
                "latency_ms_p95": metric(latency_ms(rounds, 95), "ms"),
            }
            print("ops/s per round, raw: " + " ".join(f"{r['ops'] / r['wall_s']:.4g}" for r in rounds)
                  + "; at nominal speed: " + " ".join(f"{r['ops'] / r['seconds']:.4g}" for r in rounds)
                  + f"; reference unit median {1e3 * statistics.median(probe.samples):.4f} ms")
        print(workload.notes())
        for failure in workload.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        print(f"rounds {len(rounds)}; latency samples "
              f"{sum(len(r['latencies_s']) for r in rounds)}")
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
