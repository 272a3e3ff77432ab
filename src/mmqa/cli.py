"""Command-line pipeline: augment, train, eval, generate, gradcheck.

Exit codes: 0 success, 1 validation failure (bad flags, bad values,
malformed content), 2 numerical failure, 3 I/O failure (missing or
undecodable files, or an answering worker process that died).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict

import numpy as np

from .augment import AUGMENTATIONS, Dialog, derive_seed, expand_basic
from .config import (
    DEFAULT_GENERATE_LEN,
    MAX_FACTOR,
    MAX_GENERATE_LEN,
    ModelConfig,
    check_text,
    load_config,
)
from .errors import NumericalError, ValidationError
from .formats import (
    checkpoint_from_model,
    feature_path,
    load_dataset,
    load_features,
    model_from_checkpoint,
    save_answers,
    save_checkpoint,
    save_dataset,
    save_scores,
)
from .gradcheck import TOLERANCE, composed_checks, primitive_checks
from .model import Model
from .tensor import DEFAULT_EPS
from .text import build_vocabulary
from .training import evaluate, greedy_answers, train

__all__ = ["main"]

# the options that name a file or directory
PATH_OPTIONS = ("config", "data", "out", "ckpt", "features")


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _expand(dialogs, mode: str, factor: int, seed: int):
    expand = AUGMENTATIONS[mode]
    return [example for dialog in dialogs for example in expand(dialog, factor, seed)]


def _attach_features(examples, features_dir: str, arch: ModelConfig) -> None:
    widths = arch.feature_widths
    if not any(w > 0 for w in widths.values()):
        return
    if not features_dir:
        raise ValidationError(
            "this model uses video/audio features; a features directory is required"
        )
    cache: dict = {}
    for example in examples:
        for modality, width in widths.items():
            if width < 1:
                continue
            path = feature_path(features_dir, example.video_id, modality)
            if path not in cache:
                arr = load_features(path)
                if arr.shape[1] != width:
                    raise ValidationError(
                        f"{path}: feature width {arr.shape[1]} does not match "
                        f"the configured {modality} width {width}"
                    )
                cache[path] = arr
            setattr(example, modality, cache[path])


def _cmd_augment(args) -> int:
    if not 1 <= args.factor <= MAX_FACTOR:
        raise ValidationError(f"--factor must lie in [1, {MAX_FACTOR}], got {args.factor}")
    dialogs = load_dataset(args.data)
    examples = _expand(dialogs, args.mode, args.factor, args.seed)
    expanded = [
        Dialog(video_id=ex.video_id, summary=ex.summary,
               turns=ex.history + [(ex.question, ex.answer)])
        for ex in examples
    ]
    save_dataset(args.out, expanded)
    print(f"expanded {len(dialogs)} dialogs into {len(examples)} examples: {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_dialogs = load_dataset(cfg.data.train)
    val_dialogs = load_dataset(cfg.data.val)
    train_examples = _expand(train_dialogs, cfg.training.augmentation,
                             cfg.training.factor, cfg.training.seed)
    val_examples = _expand(val_dialogs, "basic", 1, cfg.training.seed)

    token_lists = []
    for dialog in train_dialogs:
        token_lists.append(dialog.summary)
        for q, a in dialog.turns:
            token_lists.append(q)
            token_lists.append(a)
    vocab = build_vocabulary(token_lists)

    _attach_features(train_examples, cfg.data.features_dir, cfg.model)
    _attach_features(val_examples, cfg.data.features_dir, cfg.model)

    init_rng = np.random.default_rng(derive_seed(cfg.training.seed, "model-init"))
    model = Model.create(init_rng, vocab, **asdict(cfg.model))
    result = train(model, train_examples, val_examples, cfg.training)
    save_checkpoint(args.out, checkpoint_from_model(model), cfg.hash())
    vocab.save(args.out + ".vocab")
    print(f"trained {result.epochs_run} epochs; best val F1 {result.best_f1:.4f} "
          f"at epoch {result.best_epoch}; wrote {args.out}")
    return 0


def _load_eval_examples(args):
    if not 1 <= args.max_len <= MAX_GENERATE_LEN:
        raise ValidationError(f"--max-len must lie in [1, {MAX_GENERATE_LEN}], "
                              f"got {args.max_len}")
    model, _hash = model_from_checkpoint(args.ckpt)
    dialogs = load_dataset(args.data)
    examples = [expand_basic(d)[0] for d in dialogs]
    _attach_features(examples, args.features, model.cfg)
    return model, examples


def _cmd_eval(args) -> int:
    model, examples = _load_eval_examples(args)
    scores, _generations = evaluate(model, examples, args.max_len)
    save_scores(args.out, scores)
    for name, value in scores.items():
        print(f"{name}\t{value:.6f}")
    return 0


def _cmd_generate(args) -> int:
    model, examples = _load_eval_examples(args)
    answers = greedy_answers(model, examples, args.max_len)
    save_answers(args.out, answers)
    print(f"wrote {len(answers)} answers: {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    start = time.perf_counter()
    checks = [("primitive/" + name, err) for name, err in primitive_checks(args.eps)]
    checks += [("model/" + name, err) for name, err in composed_checks(args.eps)]
    elapsed = time.perf_counter() - start
    worst_name, worst = max(checks, key=lambda pair: pair[1])
    for name, err in checks:
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"{status}\t{err:.3e}\t{name}")
    print(f"worst\t{worst:.3e}\t{worst_name}")
    print(f"elapsed\t{elapsed:.1f}")
    if worst >= TOLERANCE:
        raise NumericalError(
            f"gradient check failed: {worst_name} error {worst:.3e} >= {TOLERANCE}"
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="mmqa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("augment", help="expand a dialog dataset for training")
    p.add_argument("--data", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="expanded dataset to write")
    p.add_argument("--mode", default="per-turn", choices=list(AUGMENTATIONS))
    p.add_argument("--factor", type=int, default=2, help="shuffle copies per example")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="YAML configuration")
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.set_defaults(func=_cmd_train)

    for command, summary, out_help, func in (
            ("eval", "score a checkpoint on a dataset", "score table to write", _cmd_eval),
            ("generate", "write one generated answer per example", "answers file to write",
             _cmd_generate)):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--ckpt", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--features", default="", help="feature file directory")
        p.add_argument("--max-len", type=int, default=DEFAULT_GENERATE_LEN, dest="max_len")
        p.set_defaults(func=func)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
        for option in PATH_OPTIONS:
            value = getattr(args, option, None)
            if value is not None:
                check_text(value, f"--{option}")
        return int(args.func(args) or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
