"""Output checks: each compares what the program produced with `oracles`.

Every check returns a list of human-readable failures; an empty list means
the output passed. The helpers that collect program outputs for a check
(`greedy_logits`, `gradient_coordinates`) call the program's public API only.
"""

from __future__ import annotations

import math

import numpy as np

from bench import oracles

SCORE_TOLERANCE = 1e-9
GRADIENT_TOLERANCE = 1e-4


def read_score_table(path: str) -> dict:
    """Parse `mmqa eval`'s 'name<TAB>value' lines."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            name, value = line.split("\t")
            table[name] = float(value)
    return table


def score_table_errors(table: dict, candidates, golds) -> list[str]:
    """The written scores agree with the brute-force ones within 1e-9."""
    expected = oracles.score_table(candidates, golds)
    if set(table) != set(expected):
        return [f"score table names {sorted(table)} != {sorted(expected)}"]
    return [f"{name}: written {table[name]!r}, oracle {expected[name]!r}"
            for name in expected
            if not abs(table[name] - expected[name]) <= SCORE_TOLERANCE]


def oov_errors(vocab_tokens, resolved: dict) -> list[str]:
    """Each misspelling resolved to the brute-force trigram-Dice argmax."""
    matcher = oracles.DiceMatcher(vocab_tokens)
    out = []
    for word, got in sorted(resolved.items()):
        want = matcher.resolve(word)
        if got != want:
            out.append(f"{word!r} resolved to {got}, brute force gives {want}")
    return out


def greedy_logits(model, example, answer_ids, max_len: int) -> list[np.ndarray]:
    """Decoder logits when `decode_step` is fed the answer's own tokens.

    One row per answer token, plus the step after the last token when the
    answer is shorter than `max_len`.
    """
    from mmqa.model import decode_step, init_decoder

    context, question = model.encode(example)
    state = init_decoder(model.decoder, question)
    previous = model.embedding.row(oracles.SOS)
    rows = []
    for token in list(answer_ids[:max_len]) + [None]:
        if len(rows) == max_len:
            break
        logits, state = decode_step(model.decoder, state, context, previous)
        rows.append(logits.data[0].copy())
        if token is None:
            break
        previous = model.embedding.row(token)
    return rows


def greedy_errors(rows, answer_ids, max_len: int) -> list[str]:
    """Each token is the first argmax of its step with PAD and SOS excluded,
    no EOS sits inside the answer, and the answer stops at EOS or max_len."""
    out = []
    if len(answer_ids) > max_len:
        out.append(f"answer has {len(answer_ids)} tokens, max_len is {max_len}")
    if oracles.EOS in answer_ids:
        out.append("answer contains EOS")
    expected = list(answer_ids) + ([oracles.EOS] if len(answer_ids) < max_len else [])
    if len(rows) != len(expected):
        return out + [f"{len(rows)} decoder steps for {len(expected)} expected tokens"]
    for step, (row, token) in enumerate(zip(rows, expected)):
        masked = np.array(row, dtype=np.float64)
        masked[[oracles.PAD, oracles.SOS]] = -np.inf
        best = int(np.argmax(masked))
        if best != token:
            out.append(f"step {step}: token {token} is not the argmax {best}")
    return out


def gradient_coordinates(model, example, coordinates):
    """Analytic and central-difference derivatives of the teacher-forced loss.

    `coordinates` lists (parameter name, index) pairs. Returns two dicts
    keyed like `coordinates`, plus the full analytic gradients.
    """
    from mmqa.tensor import Tape

    params = model.parameters()
    with Tape() as tape:
        for p in params.values():
            tape.watch(p)
        grads = tape.backward(model.loss(example))
    analytic, numeric = {}, {}
    for name, index in coordinates:
        analytic[(name, index)] = float(grads.wrt(params[name])[index])
        numeric[(name, index)] = oracles.central_difference(
            lambda: model.loss(example).item(), params[name].data, index)
    return analytic, numeric, {name: grads.wrt(p) for name, p in params.items()}


def gradient_errors(analytic: dict, numeric: dict) -> list[str]:
    return [f"{key}: analytic {analytic[key]!r}, central difference {numeric[key]!r}"
            for key in numeric
            if not oracles.relative_error(analytic[key], numeric[key]) < GRADIENT_TOLERANCE]


def zero_row_errors(gradient: np.ndarray, row: int) -> list[str]:
    """An embedding row the example never uses gets exactly zero gradient."""
    if np.any(gradient[row] != 0.0):
        return [f"unused embedding row {row} has a non-zero gradient"]
    return []


def training_loss_errors(losses, examples: int, epochs: int) -> list[str]:
    """Losses of one training run: all finite, one per example per epoch,
    and the last epoch's mean below the first's."""
    if len(losses) != examples * epochs:
        return [f"{len(losses)} losses, expected {examples} examples x {epochs} epochs"]
    out = [f"loss {i} is {v!r}" for i, v in enumerate(losses) if not math.isfinite(v)]
    first = sum(losses[:examples]) / examples
    last = sum(losses[-examples:]) / examples
    if not last < first:
        out.append(f"last epoch mean loss {last!r} is not below the first's {first!r}")
    return out


def gradcheck_errors(errors: dict, forwards: int, coordinates: int, tolerance: float) -> list[str]:
    out = [f"{name}: error {err!r} >= {tolerance}"
           for name, err in errors.items() if not err < tolerance]
    if forwards != 2 * coordinates:
        out.append(f"{forwards} finite-difference forwards for {coordinates} coordinates")
    return out
