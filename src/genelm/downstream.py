"""Downstream harnesses: embedding extraction, linear probing, and full or
head-only classifier finetuning with the task-appropriate metric suite.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from . import metrics as M
from .atomic import atomic_write
from .errors import DataConfigError
from .kernels import Tensor
from .model import INIT_STD, LanguageModel
from .tokenizer import encode
from .trainer import AdamState, BatchSchedule, Checkpoint, TrainConfig, optimizer_step

log = logging.getLogger(__name__)

TASK_KINDS = ("binary", "multiclass", "multilabel")


@dataclass
class LabeledDataset:
    """Sequences with targets: class indices for binary/multiclass tasks,
    (n, k) 0/1 flag matrices for multilabel ones."""

    sequences: list[str]
    targets: np.ndarray
    task_kind: str
    n_classes: int

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task_kind {self.task_kind!r}")
        self.targets = np.asarray(self.targets, dtype=np.int64)
        n = len(self.sequences)
        if self.task_kind == "multilabel":
            if self.targets.shape != (n, self.n_classes):
                raise ValueError(
                    f"multilabel targets must be ({n}, {self.n_classes}), "
                    f"got {self.targets.shape}")
            if self.targets.size and not np.isin(self.targets, (0, 1)).all():
                raise ValueError("multilabel targets must be 0/1 flags")
        else:
            if self.task_kind == "binary" and self.n_classes != 2:
                raise ValueError("binary tasks have n_classes == 2")
            if self.targets.shape != (n,):
                raise ValueError(f"targets must be ({n},), got {self.targets.shape}")
            if self.targets.size and (self.targets.min() < 0
                                      or self.targets.max() >= self.n_classes):
                raise ValueError(f"target outside [0, {self.n_classes})")

    def __len__(self) -> int:
        return len(self.sequences)


def load_labeled_dataset(path: str | os.PathLike) -> LabeledDataset:
    """Read a labeled TSV file: a header line "task_kind=<kind>\tk=<classes>",
    then one "sequence<TAB>target" row per item (multilabel targets as k
    comma-separated 0/1 flags); blank lines are skipped. A malformed line
    is a DataConfigError naming path:line."""
    sequences: list[str] = []
    targets: list = []
    # undecodable bytes become lone surrogates, which isascii(), isalpha() and
    # int() reject
    with open(path, encoding="ascii", errors="surrogateescape") as f:
        header = f.readline().rstrip("\n")
        parts = dict(p.split("=", 1) for p in header.split("\t") if "=" in p)
        task_kind, k = parts.get("task_kind"), parts.get("k", "")
        k = int(k) if k.isdigit() else 0
        if (not header.isascii() or task_kind not in TASK_KINDS or k < 1
                or (task_kind == "binary" and k != 2)):
            raise DataConfigError(f"{path}:1: bad dataset header {header!r}")
        multilabel = task_kind == "multilabel"
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            seq, _, tgt = line.partition("\t")
            try:
                target = [int(x) for x in tgt.split(",")] if multilabel else int(tgt)
                valid = (len(target) == k and set(target) <= {0, 1} if multilabel
                         else 0 <= target < k)
            except ValueError:
                valid = False
            if not (valid and "\t" not in tgt and seq.isalpha()):
                raise DataConfigError(f"{path}:{lineno}: expected letters<TAB>target "
                                      f"of a {task_kind} task with k={k}")
            sequences.append(seq)
            targets.append(target)
    shape = (len(sequences), k) if multilabel else (len(sequences),)
    return LabeledDataset(sequences, np.array(targets, dtype=np.int64).reshape(shape),
                          task_kind, k)


# ---------------------------------------------------------------------------
# embedding extraction
# ---------------------------------------------------------------------------

def embed_sequence(model: LanguageModel, sequence: str, pooling: str = "max",
                   layer: int | None = None) -> np.ndarray:
    """One fixed-size vector per sequence: hidden states pooled over the
    token axis; sequences longer than the context are cut into
    context-length chunks (final short chunk kept) whose pooled vectors are
    averaged elementwise."""
    if not sequence:
        raise ValueError("cannot embed an empty sequence")
    if pooling not in ("max", "mean"):
        raise ValueError(f"unknown pooling {pooling!r}")
    ids = encode(sequence)
    ctx = model.max_seq_len
    chunks = []
    for start in range(0, len(ids), ctx):
        h = model.hidden(ids[start:start + ctx], layer=layer)
        chunks.append(h.max(axis=0) if pooling == "max" else h.mean(axis=0))
    return np.mean(np.stack(chunks), axis=0)


def embed_dataset(model: LanguageModel, sequences, pooling: str = "max",
                  layer: int | None = None) -> np.ndarray:
    """(n, hidden) matrix of embeddings, one sequence at a time; rows
    follow input order."""
    out = np.stack([embed_sequence(model, s, pooling=pooling, layer=layer)
                    for s in sequences])
    if np.isnan(out).any():
        raise ValueError("embedding matrix contains NaN")
    return out


# ---------------------------------------------------------------------------
# linear probe on frozen embeddings
# ---------------------------------------------------------------------------

def _new_head(d: int, k: int, seed: int) -> tuple[Tensor, Tensor]:
    """Trainable (d, k) weights and k biases of a fresh linear head."""
    w = INIT_STD * np.random.default_rng(seed).standard_normal((d, k))
    return (Tensor(w.astype(np.float32), requires_grad=True),
            Tensor(np.zeros(k, dtype=np.float32), requires_grad=True))


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return K.add(K.matmul(x, w), b)


PROBE_STEPS = 300
PROBE_LR = 0.05


def train_probe(train_embeddings, train_targets, test_embeddings, test_targets,
                *, n_classes: int | None = None, seed: int = 0) -> dict:
    """Multinomial linear probe trained by PROBE_STEPS full-batch Adam steps
    at PROBE_LR on frozen embeddings; reports macro F1 (and accuracy) on the
    test split. It takes one class per row: multilabel tasks are for
    `finetune_classify`."""
    X = np.asarray(train_embeddings, dtype=np.float32)
    y = np.asarray(train_targets, dtype=np.int64)
    Xt = np.asarray(test_embeddings, dtype=np.float32)
    yt = np.asarray(test_targets, dtype=np.int64)
    if y.ndim != 1 or yt.ndim != 1:
        raise DataConfigError(
            "the probe takes one class per row; finetune handles multilabel tasks")
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("degenerate task: training targets contain a single class")
    k = n_classes if n_classes is not None else int(classes.max()) + 1

    mu = X.mean(axis=0)
    sd = X.std(axis=0) + 1e-6
    Xn = (X - mu) / sd
    Xtn = (Xt - mu) / sd

    w, b = _new_head(X.shape[1], k, seed)
    params = {"w": w, "b": b}
    cfg = TrainConfig(batch_size=1, beta1=0.9, beta2=0.999, weight_decay=0.0,
                      max_grad_norm=math.inf, lr_peak=PROBE_LR, lr_min=PROBE_LR * 0.01,
                      warmup_iters=0, total_iters=PROBE_STEPS, seed=seed)
    state = AdamState(params)
    xn = Tensor(Xn)
    for i in range(PROBE_STEPS):
        optimizer_step(K.cross_entropy(_linear(xn, w, b), y), params, state, i + 1, cfg)

    with K.no_grad():
        preds = _linear(Tensor(Xtn), w, b).data.argmax(axis=1)
    return {
        "f1_macro": M.f1(preds, yt, averaging="macro", n_classes=k),
        "accuracy": M.accuracy(preds, yt),
        "n_train": len(y),
        "n_test": len(yt),
        "steps": PROBE_STEPS,
    }


# ---------------------------------------------------------------------------
# finetuning
# ---------------------------------------------------------------------------

def _encode_padded(ds: LabeledDataset, ctx: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode sequences into one right-padded id matrix.

    Over-length sequences are head-truncated to the context (logged);
    shorter ones get PAD on the right, which the pooling mask excludes.
    Returns (ids matrix, real lengths).
    """
    if any(not s for s in ds.sequences):
        raise ValueError("dataset contains an empty sequence")
    ids = [encode(s) for s in ds.sequences]
    over = sum(1 for x in ids if len(x) > ctx)
    if over:
        log.warning("truncating %d of %d sequences to the %d-token context",
                    over, len(ids), ctx)
    width = min(max(len(x) for x in ids), ctx)
    mat = np.zeros((len(ids), width), dtype=np.uint8)
    lens = np.empty(len(ids), dtype=np.int64)
    for i, x in enumerate(ids):
        n = min(len(x), width)
        mat[i, :n] = x[:n]
        lens[i] = n
    return mat, lens


def classifier_logits(model: LanguageModel, ids: np.ndarray, lens: np.ndarray,
                      head_w: Tensor, head_b: Tensor) -> Tensor:
    """(n, k) logits of a linear head over the final hidden states averaged
    over each right-padded row's first `lens` tokens."""
    h = model.forward_hidden(ids)
    lens = lens[:, None]
    weights = ((np.arange(ids.shape[1]) < lens) / lens).astype(np.float32)[..., None]
    pooled = K.sum_axis(K.mul(h, Tensor(weights)), axis=1)
    return _linear(pooled, head_w, head_b)


def task_metrics(task_kind: str, k: int, logits: np.ndarray,
                 targets: np.ndarray) -> dict:
    """The task's metric suite from (n, k) logits, None where a metric does
    not apply. Binary AUCs rank rows by the logit margin."""
    out: dict = {"accuracy": None, "precision": None, "recall": None,
                 "f1": None, "mcc": None, "auc_roc": None, "auc_pr": None,
                 "median_auc": None}
    if task_kind == "multilabel":
        out["median_auc"] = M.median_auc_per_label(logits, targets)
        out["f1"] = M.f1((logits > 0).astype(int).ravel(), targets.ravel())
        return out
    preds = logits.argmax(axis=1)
    out["accuracy"] = M.accuracy(preds, targets)
    out["mcc"] = M.mcc(preds, targets)
    if task_kind == "binary":
        margin = logits[:, 1] - logits[:, 0]
        out["precision"] = M.precision(preds, targets)
        out["recall"] = M.recall(preds, targets)
        out["f1"] = M.f1(preds, targets)
        out["auc_roc"] = M.auc_roc(margin, targets)
        out["auc_pr"] = M.auc_pr(margin, targets)
    else:
        out["f1"] = M.f1(preds, targets, averaging="macro", n_classes=k)
    return out


def finetune_classify(ckpt: Checkpoint, train_ds: LabeledDataset,
                      test_ds: LabeledDataset, mode: str = "all_layers", *,
                      config: TrainConfig, head_seed: int = 0,
                      ) -> tuple[dict, Checkpoint]:
    """Attach a fresh linear head over the mean-pooled final hidden state
    and train it (head_only) or the whole network (all_layers).

    Returns the test-split metrics and the finetuned checkpoint: the
    backbone's parameters followed by the head's `classifier.w` (hidden, k)
    and `classifier.b` (k,), with `config` as its train config and its step
    at `config.total_iters`. In head_only mode every backbone parameter is
    frozen: gradients are exactly zero and the weights come back
    bit-identical.
    """
    if mode not in ("all_layers", "head_only"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(train_ds) == 0 or len(test_ds) == 0:
        raise ValueError("empty split")
    if train_ds.task_kind != test_ds.task_kind or train_ds.n_classes != test_ds.n_classes:
        raise ValueError("train/test task declarations disagree")

    model = ckpt.build_model()
    ctx = model.max_seq_len
    train_ids, train_lens = _encode_padded(train_ds, ctx)
    test_ids, test_lens = _encode_padded(test_ds, ctx)

    k = train_ds.n_classes
    task = train_ds.task_kind
    head_w, head_b = _new_head(model.config.hidden, k, head_seed)

    head = {"classifier.w": head_w, "classifier.b": head_b}
    if mode == "head_only":
        for p in model.params.values():
            p.requires_grad = False
        trainable = head
    else:
        trainable = {**model.named_params(), **head}

    state = AdamState(trainable)
    schedule = BatchSchedule(len(train_ds), config.batch_size, config.seed)

    for i in range(config.total_iters):
        idx = schedule.indices(i)
        logits = classifier_logits(model, train_ids[idx], train_lens[idx], head_w, head_b)
        if task == "multilabel":
            loss = K.sigmoid_bce(logits, train_ds.targets[idx])
        else:
            loss = K.cross_entropy(logits, train_ds.targets[idx])
        optimizer_step(loss, trainable, state, i + 1, config)

    batch = 32  # test rows per graph-free forward
    with K.no_grad():
        scores = np.concatenate([
            classifier_logits(model, test_ids[i:i + batch], test_lens[i:i + batch],
                              head_w, head_b).data
            for i in range(0, len(test_ids), batch)])
    record = task_metrics(task, k, scores, test_ds.targets)
    record.update({"task": task, "mode": mode, "n_train": len(train_ds),
                   "n_test": len(test_ds), "steps": config.total_iters})
    return record, Checkpoint(
        model_config=ckpt.model_config, train_config=config,
        params={n: p.data for n, p in {**model.named_params(), **head}.items()},
        moments=None, step=config.total_iters, stage=ckpt.stage,
        data_seed=ckpt.data_seed)


def write_metrics(record: dict, path: str | os.PathLike) -> None:
    with atomic_write(path) as f:
        json.dump(record, f, sort_keys=True, indent=2)
        f.write("\n")
