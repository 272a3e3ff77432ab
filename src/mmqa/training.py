"""Adam optimization, the training loop, and corpus evaluation.

Training runs shuffled mini-batches with per-example backward passes and
batch-averaged gradients, summed in one vector laid out like the flat
parameter vector that Adam updates in place. After every epoch the model
greedily answers the validation set; the best mean token-F1 parameters are
kept and training stops once that score fails to improve for `patience`
epochs in a row.

Greedy answers for a list of examples (`greedy_answers`, which serves
`evaluate`, the per-epoch validation pass and `mmqa generate`) are split
into contiguous shards, one per usable core, with at least MIN_SHARD
examples each: the calling process answers the first shard and a forked
worker each other one. Each answer is still one `Model.generate` call, and
the answers come back in input order, so the outputs are the same for any
number of processes.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT_GENERATE_LEN, TrainingConfig
from .errors import NumericalError, ShapeError, ValidationError
from .metrics import bleu, cider, rouge_l_corpus
from .tensor import Tape

__all__ = ["Adam", "token_f1", "TrainResult", "train", "evaluate", "greedy_answers"]

# The fewest examples `greedy_answers` gives a process of its own. On the
# benchmark's `eval` model, two processes lost to one at 8 examples, tied or
# lost at 16 and won from 32 on (shards of 16), so a shard of 32 leaves a
# margin over the cost of a fork.
MIN_SHARD = 32

# Where a cgroup's CPU quota and period are read: cgroup v2's `cpu.max` holds
# both ("max" for no quota), v1 splits them over two files (-1 for none).
# Inside a container these are the container's own cgroup's files.
CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                   ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                    "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


class Adam(object):
    """Standard Adam with bias correction over a named parameter dict.

    On construction the parameters are copied into one contiguous vector,
    `theta`, owner by owner in the dict's order: each parameter brings its
    `owner` (itself, or for a GRU cell's gate columns the cell's joined
    array) the first time that owner comes up. Each owner's `data` is
    rebound to its block of `theta`, reshaped, so every parameter's `data`
    is its `part` of that block, a view of `theta`. The moments `m` and `v`
    are two vectors of the same layout. `views` maps each name to its part
    of any of them, and `owner_blocks` each owner to its block, a contiguous
    array: the sinks of a tape, which lists owners. A step updates all
    three in place.

    A zero gradient leaves its parameter bitwise untouched as long as the
    moments are still zero, which keeps unused modules exactly frozen.
    """

    # elements per pass of `step`: small enough that a pass's six arrays
    # (parameters, gradient, moments, two scratch rows) stay in cache, large
    # enough that ufunc dispatch is negligible
    CHUNK = 1 << 14

    def __init__(self, params: dict, learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        blocks, size = {}, 0  # owner -> its slice of theta
        for owner in (p.owner for p in params.values()):
            if owner not in blocks:
                blocks[owner] = slice(size, size + owner.data.size)
                size += owner.data.size
        self._params = dict(params)
        self.theta = np.concatenate([o.data.reshape(-1) for o in blocks])
        for owner, block in blocks.items():
            owner.data = self.theta[block].reshape(owner.data.shape)
        self._blocks = blocks
        self.m = np.zeros_like(self.theta)
        self.v = np.zeros_like(self.theta)
        self._scratch = np.empty((2, min(self.CHUNK, self.theta.size)))

    def views(self, vector: np.ndarray) -> dict:
        """Name -> view of `vector`, a vector in `theta`'s layout."""
        blocks = self.owner_blocks(vector)
        return {name: p.part(blocks[p.owner]) for name, p in self._params.items()}

    def owner_blocks(self, vector: np.ndarray) -> dict:
        """Owner tensor -> its block of `vector` (in `theta`'s layout),
        shaped like the owner: one contiguous array each, which together
        cover `vector` once."""
        return {owner: vector[block].reshape(owner.data.shape)
                for owner, block in self._blocks.items()}

    def step(self, grad) -> None:
        """One update from `grad`, a vector in `theta`'s layout.

        Each element goes through the textbook expression, operation by
        operation, so the result is bitwise that of the unfused formula.
        """
        if grad.shape != self.theta.shape:
            raise ShapeError(f"gradient is {grad.shape}, parameters are {self.theta.shape}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for lo in range(0, self.theta.size, self.CHUNK):
            part = slice(lo, lo + self.CHUNK)
            p, m, v, g = self.theta[part], self.m[part], self.v[part], grad[part]
            a, b = self._scratch[:, :p.size]
            # m = b1 * m + (1 - b1) * g
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.add(v, a, out=v)
            # p -= lr * (m / c1) / (sqrt(v / c2) + epsilon)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, self.epsilon, out=b)
            np.divide(m, c1, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(a, b, out=a)
            np.subtract(p, a, out=p)


def token_f1(pred, gold) -> float:
    """Multiset token overlap F1; 0 when either side is empty."""
    if not pred or not gold:
        return 0.0
    overlap = sum((Counter(pred) & Counter(gold)).values())
    if overlap == 0:
        return 0.0
    p = overlap / len(pred)
    r = overlap / len(gold)
    return 2.0 * p * r / (p + r)


@dataclass
class TrainResult:
    """Best parameters plus the per-epoch log of a training run."""

    params: dict
    best_f1: float
    best_epoch: int
    epochs_run: int
    log: list = field(default_factory=list)
    epochs_to_target: Optional[int] = None
    optimizer: Optional[Adam] = None


def _usable_cores() -> int:
    """The cores this process may use: its affinity mask (which `taskset`
    and cpusets bound), capped by its cgroup's CPU quota (which `docker
    --cpus` sets) rounded up; 1 where the affinity mask cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cores = len(os.sched_getaffinity(0))
    for paths in CPU_QUOTA_FILES:
        try:
            fields = []
            for path in paths:
                with open(path) as f:
                    fields += f.read().split()
            quota, period = fields
            if quota in ("max", "-1"):
                return cores
            return max(1, min(cores, -(-int(quota) // int(period))))
        except (OSError, ValueError, ZeroDivisionError):
            continue
    return cores


def greedy_answers(model, examples, max_len: int) -> list:
    """`model.generate(example, max_len)` for each of `examples`, in order.

    The examples are split into contiguous shards, as many as the cores
    this process may use (`_usable_cores`) but no more than leave MIN_SHARD
    examples in each, and at least one. The calling process starts a forked
    worker for each shard after the first, answers the first itself, then
    reads each worker's reply, in shard order, over a one-way pipe: its
    answers, or the exception it raised, which is raised here. A worker that dies without
    replying raises ChildProcessError (an OSError) naming its shard.
    Workers are always joined, and terminated first if this call raises.
    Where the fork start method or `os.sched_getaffinity` is missing, this
    process answers everything. The program starts no threads of its own,
    and OpenBLAS stops its pool before a fork, so forking is safe here.
    """
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    processes = _usable_cores() if "fork" in multiprocessing.get_all_start_methods() else 1
    shards = max(1, min(processes, len(examples) // MIN_SHARD))
    bounds = [len(examples) * k // shards for k in range(shards + 1)]
    workers = []
    try:
        for k in range(1, shards):
            reader, writer = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.get_context("fork").Process(
                target=_answer_shard,
                args=(model, examples[bounds[k]:bounds[k + 1]], max_len, writer))
            worker.start()
            workers.append((worker, reader))
            writer.close()  # so the reader sees EOF if the worker dies
        answers = [model.generate(example, max_len) for example in examples[:bounds[1]]]
        for k, (worker, reader) in enumerate(workers, 1):
            try:
                reply = reader.recv()
            except EOFError:
                worker.join()
                raise ChildProcessError(
                    f"the worker answering shard {k} (examples {bounds[k]} to "
                    f"{bounds[k + 1] - 1}) exited with code {worker.exitcode} "
                    f"without replying") from None
            if isinstance(reply, Exception):
                raise reply
            answers += reply
        return answers
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, reader in workers:
            worker.join()
            reader.close()


def _answer_shard(model, examples, max_len: int, writer) -> None:
    """A worker's body: reply with the shard's answers or the exception."""
    try:
        reply = [model.generate(example, max_len) for example in examples]
    except Exception as exc:  # raised again in the calling process
        reply = exc
    writer.send(reply)


def _mean_f1(model, examples, max_len: int) -> float:
    answers = greedy_answers(model, examples, max_len)
    return sum(token_f1(a, ex.answer) for a, ex in zip(answers, examples)) / len(examples)


def _non_finite_example(model, examples, cfg: TrainingConfig, rng_state: dict, adam: Adam,
                        name: str) -> Optional[str]:
    """The video id of the first of a batch's `examples` whose own gradient
    of the parameter `name` is not finite, or None if none is.

    The batch is replayed one example per tape, from `rng_state`, the
    sampling generator's state at the batch's start, into a fresh zero
    vector with the owner sinks that training uses.
    """
    rng = np.random.default_rng(0)
    rng.bit_generator.state = rng_state
    grad = np.zeros_like(adam.theta)
    part, sinks = adam.views(grad)[name], adam.owner_blocks(grad)
    for example in examples:
        grad.fill(0.0)
        with Tape(sinks) as tape:
            tape.backward(model.loss(example, mode=cfg.loss_mode,
                                     p_model=cfg.ss_probability, rng=rng))
        if not np.isfinite(part).all():
            return example.video_id
    return None


def train(model, train_set, val_set, cfg: TrainingConfig,
          stop_at_train_f1: Optional[float] = None) -> TrainResult:
    """Optimize `model` in place; on return it holds the best parameters.

    With `stop_at_train_f1` set, training additionally measures greedy
    token-F1 on the training set each epoch and stops the moment it reaches
    the target, keeping the current parameters (used by overfitting probes).
    """
    if not train_set or not val_set:
        raise ValidationError("training and validation sets must be non-empty")
    shuffle_seed, sample_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    sample_rng = np.random.default_rng(sample_seed)

    params = model.parameters()
    adam = Adam(params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon)
    # one gradient vector in the parameters' layout: every backward pass
    # adds straight into the blocks of the owners it reached, so an unused
    # parameter's part stays zero
    grad = np.zeros_like(adam.theta)
    grads = adam.views(grad)
    sinks = adam.owner_blocks(grad)
    best = adam.theta.copy()
    best_f1 = -1.0
    best_epoch = 0
    stale = 0
    log = []
    epochs_run = 0
    epochs_to_target = None

    for epoch in range(1, cfg.max_epochs + 1):
        epochs_run = epoch
        order = shuffle_rng.permutation(len(train_set))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            batch_rng_state = sample_rng.bit_generator.state
            grad.fill(0.0)
            for idx in batch:
                with Tape(sinks) as tape:
                    loss = model.loss(train_set[idx], mode=cfg.loss_mode,
                                      p_model=cfg.ss_probability, rng=sample_rng)
                    value = loss.item()
                    if not np.isfinite(value):
                        raise NumericalError(
                            f"loss diverged to {value} at epoch {epoch} "
                            f"(example {train_set[idx].video_id!r})"
                        )
                    tape.backward(loss)
                epoch_loss += value
            if model.cfg.freeze_embeddings:
                grads["embedding.matrix"][...] = 0.0
            if not np.isfinite(grad).all():
                name = next(n for n, g in grads.items() if not np.isfinite(g).all())
                examples = [train_set[i] for i in batch]
                culprit = _non_finite_example(model, examples, cfg, batch_rng_state, adam, name)
                found = (f"example {culprit!r}" if culprit is not None
                         else "no one example's gradient is, their sum overflowed")
                raise NumericalError(
                    f"gradient of {name} is not finite at epoch {epoch} "
                    f"({found}; batch {[ex.video_id for ex in examples]})"
                )
            grad *= 1.0 / len(batch)
            adam.step(grad)
        epoch_loss /= len(train_set)

        val_f1 = _mean_f1(model, val_set, cfg.max_generate_len)
        entry = {"epoch": epoch, "loss": epoch_loss, "val_f1": val_f1}
        log.append(entry)

        if val_f1 > best_f1:
            best_f1 = val_f1
            best_epoch = epoch
            best = adam.theta.copy()
            stale = 0
        else:
            stale += 1

        if stop_at_train_f1 is not None:
            train_f1 = _mean_f1(model, train_set, cfg.max_generate_len)
            entry["train_f1"] = train_f1
            if train_f1 >= stop_at_train_f1:
                epochs_to_target = epoch
                best = adam.theta.copy()
                best_f1 = val_f1
                best_epoch = epoch
                break

        if stale >= cfg.patience:
            break

    adam.theta[...] = best
    return TrainResult(params=adam.views(best), best_f1=best_f1, best_epoch=best_epoch,
                       epochs_run=epochs_run, log=log,
                       epochs_to_target=epochs_to_target, optimizer=adam)


def evaluate(model, examples, max_len: int = DEFAULT_GENERATE_LEN):
    """Greedy generation plus the full metric table.

    Returns (scores dict in canonical order, generated token lists).
    """
    if not examples:
        raise ValidationError("evaluation set must be non-empty")
    candidates = greedy_answers(model, examples, max_len)
    references = [[ex.answer] for ex in examples]
    scores = {f"bleu{k}": bleu(candidates, references, k) for k in (1, 2, 3, 4)}
    scores["rouge_l"] = rouge_l_corpus(candidates, references)
    scores["cider"] = cider(candidates, references)
    scores["token_f1"] = sum(
        token_f1(c, ex.answer) for c, ex in zip(candidates, examples)
    ) / len(examples)
    return scores, candidates
