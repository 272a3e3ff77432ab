"""Adam optimization, the training loop, and corpus evaluation.

Training runs shuffled mini-batches with per-example backward passes and
batch-averaged gradients, summed in Adam's gradient vector, laid out like
the flat parameter vector that Adam updates in place (see `Adam`). Each
backward adds its bias, embedding and other elementwise gradients into that
vector at once and queues its weight gradients as factor pairs; `Adam.step`
forms each parameter's weight gradient for the whole mini-batch as one GEMM
over the examples' stacked factors (Goodfellow, 2015), so the dense
products are paid once per batch, not once per example. After
every epoch the model greedily answers the validation set; the best mean
token-F1 parameters are kept and training stops once that score fails to
improve for `patience` epochs in a row.

Greedy answers for a list of examples (`greedy_answers`, which serves
`evaluate`, the per-epoch validation pass and `mmqa generate`) are split
into contiguous shards, one per usable core, with at least MIN_SHARD
examples each: the calling process answers the first shard and a forked
worker each other one, or the calling process itself where a fork fails.
Each answer is still one `Model.generate` call, and the answers come back
in input order, so the outputs are the same for any number of processes.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT_GENERATE_LEN, TrainingConfig
from .errors import NumericalError, ValidationError
from .metrics import corpus_scores
from .tensor import Tape, _Product

__all__ = ["token_f1", "train", "evaluate", "greedy_answers"]

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


class NonFiniteGradient(NumericalError):
    """A step's gradient of the parameter `name` holds a NaN or an infinity;
    the step updated nothing."""

    def __init__(self, name: str):
        super().__init__(f"gradient of {name} is not finite")
        self.name = name


class Adam(object):
    """Standard Adam with bias correction over a named parameter dict, with
    Kingma and Ba's recommended BETA1, BETA2 and EPSILON.

    On construction the parameters are copied into one contiguous vector,
    `theta`, owner by owner in the dict's order: each parameter brings its
    `owner` (itself, or for a GRU cell's gate columns the cell's joined
    array) the first time that owner comes up. Each owner's `data` is
    rebound to its block of `theta`, reshaped, so every parameter's `data`
    is its `part` of that block, a view of `theta`. The moments `m` and `v`
    and the gradient `grad` are vectors of the same layout. `views` maps
    each name to its part of any of them, and `owner_blocks` each owner to
    its block, a contiguous array. `sinks`, the blocks of `grad`, are the
    sinks of a tape, which lists owners: a batch's backward passes add into
    them between `zero_grad` and `step`, and leave their weight gradients,
    unformed products (`tensor._Product`), in `queue`. `step` forms the
    products queued for each owner and row range in one GEMM over their
    stacked factors, the batch's sum, before anything reads `grad`. An owner
    and range with one product forms it as a plain tape would, so a batch
    that gives each owner and range one product, such as one history-free
    example, steps bitwise as if each backward had formed its products.

    A step updates only the live rows. A row is one row of an owner's 2-D
    data (a 1-D owner is one row); it turns live the first time its
    gradient holds an entry other than zero (a NaN or an infinity counts,
    -0.0 does not), and an owner with at least half its rows live is live
    whole. Skipping the other rows is exact. Where g = m = v = 0 (either
    zero for g), the textbook update gives m = b1 * 0 + (1 - b1) * g = 0,
    v = 0 and p - lr * 0 / (sqrt(0) + epsilon) = p bitwise, -0.0 included,
    for any positive epsilon; and a row that has never had a nonzero
    gradient has had g = m = v = 0 at every step. So the result is that
    of updating every element, and unused modules stay exactly frozen.
    Only the live rows of `grad` are zeroed, checked and scaled: a step
    makes live every row its gradient reached, so the others hold zeros.
    The plan of a step: the live owners, as contiguous spans of `theta`
    (adjacent owners merged into one), each stepped chunk by chunk; then the
    live rows of the other owners, gathered into one copy, stepped and
    scattered back. `mark_live` reads only the rows not live yet and
    rebuilds the plan only when one turns live; once every owner is live, a
    step is one chunked pass over `theta`. The moments and `grad` come from
    `np.zeros`, so the pages of rows that never turn live are never written.
    """

    # elements per pass of `step`: small enough that a pass's six arrays
    # (parameters, gradient, moments, two scratch rows) stay in cache, large
    # enough that ufunc dispatch is negligible
    CHUNK = 1 << 14
    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, learning_rate: float):
        self.lr = learning_rate
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
        self.m = np.zeros(self.theta.shape)
        self.v = np.zeros(self.theta.shape)
        self.grad = np.zeros(self.theta.shape)
        self.sinks = self.owner_blocks(self.grad)
        self.queue = []  # (owner, product) pairs, as a batch's tapes leave them
        self._scratch = np.empty((2, min(self.CHUNK, self.theta.size)))
        # per owner, in theta's order: its block's start, its row width and
        # which of its rows are live
        self._rows = []
        for owner, block in blocks.items():
            rows, width = (owner.data.shape if owner.data.ndim == 2
                           else (1, owner.data.size))
            self._rows.append((block.start, width, np.zeros(rows, dtype=bool)))
        self._plan()

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

    def live_parts(self, vector: np.ndarray) -> list:
        """The live rows of `vector` (in `theta`'s layout), as contiguous
        views that together cover them once."""
        return [vector[lo:hi] for lo, hi in self._spans + self._runs]

    def zero_grad(self) -> None:
        """Zero `grad` for the next batch: its live rows, the only ones
        that can hold anything other than zero after a step; and drop any
        queued product."""
        self.queue.clear()
        for part in self._live_grad:
            part.fill(0.0)

    def _form_queued(self) -> None:
        """Empty `queue` into the sinks: the products of each owner and row
        range, in arrival order, as one product (`_Product.stacked`)."""
        groups = {}
        for owner, product in self.queue:
            rows = None if product.rows is None else product.rows.indices(owner.rows)
            groups.setdefault((owner, rows), []).append(product)
        self.queue.clear()
        for (owner, _), products in groups.items():
            _Product.stacked(products).add_to(self.sinks[owner])

    def mark_live(self) -> None:
        """Make live each row that is not yet and whose part of `grad` holds
        an entry other than zero. Only the rows not live yet are read, and
        the plan is rebuilt only if one turns live."""
        turned = False
        for lo, hi, runs in self._dead:
            if (self.grad[lo:hi] != 0).any():
                turned = True
                for run_lo, run_hi, width, live in runs:
                    rows = self.grad[run_lo:run_hi].reshape(live.size, width)
                    live |= (rows != 0).any(axis=1)
        if turned:
            self._plan()

    def _plan(self) -> None:
        """Rebuild the step's plan from the live rows: `_spans` (the live
        owners' blocks, adjacent ones merged), `_runs` (the runs of live
        rows in the other owners) with `_gather` (their elements),
        `_live_grad` (the live rows of `grad`) and `_dead`: the runs of rows
        not live yet, each with its row width and its part of the owner's
        live flags, grouped into spans of `theta` where they are adjacent,
        so that one read finds a span all zero."""
        self._spans, self._runs, self._dead = [], [], []
        for start, width, live in self._rows:
            if 2 * np.count_nonzero(live) >= live.size:
                live[...] = True
                end = start + live.size * width
                if self._spans and self._spans[-1][1] == start:
                    start = self._spans.pop()[0]
                self._spans.append((start, end))
                continue
            edges = [0, *(np.flatnonzero(live[1:] != live[:-1]) + 1).tolist(), live.size]
            for r0, r1 in zip(edges, edges[1:]):
                lo, hi = start + r0 * width, start + r1 * width
                if live[r0]:
                    self._runs.append((lo, hi))
                elif self._dead and self._dead[-1][1] == lo:
                    first, _, runs = self._dead.pop()
                    self._dead.append((first, hi, runs + [(lo, hi, width, live[r0:r1])]))
                else:
                    self._dead.append((lo, hi, [(lo, hi, width, live[r0:r1])]))
        self._gather = np.concatenate(
            [np.arange(lo, hi) for lo, hi in self._runs] or [np.arange(0)])
        self._live_grad = self.live_parts(self.grad)

    def step(self, scale: float) -> None:
        """One update from `grad` times `scale`: the queued products are
        added to `grad` first, and the rows of `grad` that hold a nonzero
        turn live (`mark_live`); then, if a live row holds a NaN or an
        infinity, NonFiniteGradient names the first parameter whose gradient
        does, and nothing is updated (`theta`, `m`, `v` and `t` stay as
        they were); otherwise the live rows of `grad` are multiplied by
        `scale`, unless it is 1 (`x * 1.0` is `x` bitwise), and each live
        row is updated.

        Each element goes through the textbook expression, operation by
        operation, so the result is bitwise that of the unfused formula
        applied to every element.
        """
        self._form_queued()
        self.mark_live()
        if not all(np.isfinite(part).all() for part in self._live_grad):
            raise NonFiniteGradient(next(name for name, g in self.views(self.grad).items()
                                         if not np.isfinite(g).all()))
        if scale != 1.0:
            for part in self._live_grad:
                part *= scale
        self.t += 1
        c1, c2 = 1.0 - self.BETA1 ** self.t, 1.0 - self.BETA2 ** self.t
        grad = self.grad
        for lo, hi in self._spans:
            for start in range(lo, hi, self.CHUNK):
                part = slice(start, min(start + self.CHUNK, hi))
                self._update(self.theta[part], self.m[part], self.v[part], grad[part], c1, c2)
        for start in range(0, self._gather.size, self.CHUNK):
            part = self._gather[start:start + self.CHUNK]
            p, m, v = self.theta[part], self.m[part], self.v[part]
            self._update(p, m, v, grad[part], c1, c2)
            self.theta[part], self.m[part], self.v[part] = p, m, v

    def _update(self, p, m, v, g, c1, c2) -> None:
        """The update of `p`, `m` and `v` in place from `g`, given the bias
        corrections `c1` and `c2`; at most CHUNK elements."""
        b1, b2 = self.BETA1, self.BETA2
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
        np.add(b, self.EPSILON, out=b)
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
    """The outcome of a training run: the best epoch and its validation F1,
    the epochs run, the per-epoch log, the epoch that reached
    `stop_at_train_f1` (None if none did) and the optimizer. The best
    epoch's parameters are the model's own on return."""

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
    worker for each shard after the first, then goes through the shards in
    order: it answers the first itself, and each shard whose worker could
    not be started (`Process.start` raised OSError); for the others it reads
    the worker's reply over a one-way pipe: its answers, or the exception it
    raised, which is raised here. A worker that dies without replying raises
    ChildProcessError (an OSError) naming its shard. The workers started are
    always joined, and terminated first if this call raises.
    Where the fork start method or `os.sched_getaffinity` is missing, this
    process answers everything. The program starts no threads of its own,
    and OpenBLAS stops its pool before a fork, so forking is safe here.
    """
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    processes = _usable_cores() if "fork" in multiprocessing.get_all_start_methods() else 1
    shards = max(1, min(processes, len(examples) // MIN_SHARD))
    bounds = [len(examples) * k // shards for k in range(shards + 1)]
    workers = {}  # shard -> (its worker, the reader of its reply)
    try:
        for k in range(1, shards):
            reader, writer = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.get_context("fork").Process(
                target=_answer_shard,
                args=(model, examples[bounds[k]:bounds[k + 1]], max_len, writer))
            try:
                worker.start()
            except OSError:  # no process to spare: this one answers shard k
                reader.close()
                continue
            finally:
                writer.close()  # so the reader sees EOF if the worker dies
            workers[k] = (worker, reader)
        answers = []
        for k in range(shards):
            if k not in workers:
                answers += [model.generate(example, max_len)
                            for example in examples[bounds[k]:bounds[k + 1]]]
                continue
            worker, reader = workers[k]
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
        for worker, _ in workers.values():
            worker.terminate()
        raise
    finally:
        for worker, reader in workers.values():
            worker.join()
            reader.close()


def _answer_shard(model, examples, max_len: int, writer) -> None:
    """A worker's body: reply with the shard's answers or the exception."""
    try:
        reply = [model.generate(example, max_len) for example in examples]
    except Exception as exc:  # raised again in the calling process
        reply = exc
    writer.send(reply)


def _mean_token_f1(answers, examples) -> float:
    """Mean `token_f1` of `answers` against the examples' gold answers."""
    return sum(token_f1(a, ex.answer) for a, ex in zip(answers, examples)) / len(examples)


def _non_finite_example(model, examples, cfg: TrainingConfig, param) -> Optional[str]:
    """The video id of the first of a batch's `examples` whose own gradient
    of the parameter tensor `param` is not finite, or None if none is.

    The batch is replayed one example per tape into one zero sink: that
    of `param`'s owner, the only gradient the replay needs.
    """
    sink = np.zeros_like(param.owner.data)
    for example in examples:
        sink.fill(0.0)
        with Tape({param.owner: sink}) as tape:
            tape.backward(model.loss(example, mode=cfg.loss_mode))
        if not np.isfinite(param.part(sink)).all():
            return example.video_id
    return None


def train(model, train_set, val_set, cfg: TrainingConfig,
          stop_at_train_f1: Optional[float] = None) -> TrainResult:
    """Optimize `model` in place; on return it holds the best parameters.

    With `stop_at_train_f1` set, training additionally measures greedy
    token-F1 on the training set each epoch and stops the moment it reaches
    the target, keeping the current parameters (used by overfitting probes).
    When `val_set is train_set`, that is the validation F1 itself.
    """
    if not train_set or not val_set:
        raise ValidationError("training and validation sets must be non-empty")
    # the seed's first child, not the seed itself: every run so far has
    # shuffled its batches from it
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])

    params = model.parameters()
    adam = Adam(params, cfg.learning_rate)
    best = adam.theta.copy()  # the best epoch's parameters, updated in place
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
            adam.zero_grad()
            for idx in batch:
                # every backward pass adds straight into Adam's gradient,
                # and queues its weight gradients for the step to form
                with Tape(adam.sinks, adam.queue) as tape:
                    loss = model.loss(train_set[idx], mode=cfg.loss_mode)
                    value = loss.item()
                    if not np.isfinite(value):
                        raise NumericalError(
                            f"loss diverged to {value} at epoch {epoch} "
                            f"(example {train_set[idx].video_id!r})"
                        )
                    tape.backward(loss)
                epoch_loss += value
            try:
                adam.step(1.0 / len(batch))
            except NonFiniteGradient as exc:
                examples = [train_set[i] for i in batch]
                culprit = _non_finite_example(model, examples, cfg, params[exc.name])
                found = (f"example {culprit!r}" if culprit is not None
                         else "no one example's gradient is, their sum overflowed")
                raise NumericalError(
                    f"{exc} at epoch {epoch} "
                    f"({found}; batch {[ex.video_id for ex in examples]})"
                ) from None
        epoch_loss /= len(train_set)

        val_f1 = _mean_token_f1(greedy_answers(model, val_set, cfg.max_generate_len), val_set)
        entry = {"epoch": epoch, "loss": epoch_loss, "val_f1": val_f1}
        log.append(entry)
        reached = False
        if stop_at_train_f1 is not None:
            # one greedy pass serves both scores when they are of one set
            train_f1 = (val_f1 if val_set is train_set else _mean_token_f1(
                greedy_answers(model, train_set, cfg.max_generate_len), train_set))
            entry["train_f1"] = train_f1
            reached = train_f1 >= stop_at_train_f1
        if reached or val_f1 > best_f1:
            np.copyto(best, adam.theta)
            best_f1, best_epoch, stale = val_f1, epoch, 0
        else:
            stale += 1
        if reached:
            epochs_to_target = epoch
            break
        if stale >= cfg.patience:
            break

    adam.theta[...] = best
    return TrainResult(best_f1=best_f1, best_epoch=best_epoch, epochs_run=epochs_run,
                       log=log, epochs_to_target=epochs_to_target, optimizer=adam)


def evaluate(model, examples, max_len: int = DEFAULT_GENERATE_LEN):
    """Greedy generation plus the full metric table.

    Returns (scores dict in canonical order, generated token lists).
    """
    if not examples:
        raise ValidationError("evaluation set must be non-empty")
    candidates = greedy_answers(model, examples, max_len)
    references = [[ex.answer] for ex in examples]
    scores = corpus_scores(candidates, references)
    scores["token_f1"] = _mean_token_f1(candidates, examples)
    return scores, candidates
