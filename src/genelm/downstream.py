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


def save_labeled_dataset(ds: LabeledDataset, path: str | os.PathLike) -> None:
    """Tab-separated file: a header line declaring the task, then one
    "sequence<TAB>target" row per item (multilabel targets as
    comma-separated 0/1 flags)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"task_kind={ds.task_kind}\tk={ds.n_classes}\n")
        for seq, tgt in zip(ds.sequences, ds.targets):
            if ds.task_kind == "multilabel":
                f.write(f"{seq}\t{','.join(str(int(x)) for x in tgt)}\n")
            else:
                f.write(f"{seq}\t{int(tgt)}\n")


def load_labeled_dataset(path: str | os.PathLike) -> LabeledDataset:
    with open(path, encoding="ascii") as f:
        header = f.readline().rstrip("\n")
        parts = dict(p.split("=", 1) for p in header.split("\t") if "=" in p)
        try:
            task_kind = parts["task_kind"]
            k = int(parts["k"])
        except (KeyError, ValueError) as exc:
            raise DataConfigError(f"{path}: bad dataset header {header!r}") from exc
        sequences: list[str] = []
        targets: list = []
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                seq, tgt = line.split("\t")
            except ValueError as exc:
                raise DataConfigError(
                    f"{path}:{lineno}: expected sequence<TAB>target") from exc
            sequences.append(seq)
            if task_kind == "multilabel":
                targets.append([int(x) for x in tgt.split(",")])
            else:
                targets.append(int(tgt))
    return LabeledDataset(sequences, np.asarray(targets, dtype=np.int64),
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

def train_probe(train_embeddings, train_targets, test_embeddings, test_targets,
                *, n_classes: int | None = None, steps: int = 300,
                lr: float = 0.05, seed: int = 0) -> dict:
    """Multinomial linear probe trained by full-batch gradient descent on
    frozen embeddings; reports macro F1 (and accuracy) on the test split."""
    X = np.asarray(train_embeddings, dtype=np.float32)
    y = np.asarray(train_targets, dtype=np.int64)
    Xt = np.asarray(test_embeddings, dtype=np.float32)
    yt = np.asarray(test_targets, dtype=np.int64)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("degenerate task: training targets contain a single class")
    k = n_classes if n_classes is not None else int(classes.max()) + 1

    mu = X.mean(axis=0)
    sd = X.std(axis=0) + 1e-6
    Xn = (X - mu) / sd
    Xtn = (Xt - mu) / sd

    rng = np.random.default_rng(seed)
    w = Tensor((INIT_STD * rng.standard_normal((X.shape[1], k))).astype(np.float32),
               requires_grad=True)
    b = Tensor(np.zeros(k, dtype=np.float32), requires_grad=True)
    params = {"w": w, "b": b}
    cfg = TrainConfig(batch_size=1, beta1=0.9, beta2=0.999, weight_decay=0.0,
                      max_grad_norm=math.inf, lr_peak=lr, lr_min=lr * 0.01,
                      warmup_iters=0, total_iters=steps, seed=seed)
    state = AdamState(params)
    xn = Tensor(Xn)
    for i in range(steps):
        optimizer_step(K.cross_entropy(K.add(K.matmul(xn, w), b), y),
                       params, state, i + 1, cfg)

    preds = (Xtn @ w.data + b.data).argmax(axis=1)
    return {
        "f1_macro": M.f1(preds, yt, averaging="macro", n_classes=k),
        "accuracy": M.accuracy(preds, yt),
        "n_train": len(y),
        "n_test": len(yt),
        "steps": steps,
    }


# ---------------------------------------------------------------------------
# finetuning
# ---------------------------------------------------------------------------

@dataclass
class FinetuneResult:
    metrics: dict
    backbone: dict[str, np.ndarray]
    head_w: np.ndarray
    head_b: np.ndarray


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


def _pool_weights(lens: np.ndarray, width: int, dtype=np.float32) -> np.ndarray:
    """(n, width, 1) weights that average hidden states over real tokens."""
    w = np.zeros((len(lens), width, 1), dtype=dtype)
    for i, n in enumerate(lens):
        w[i, :n, 0] = 1.0 / n
    return w


def _classifier_scores(model: LanguageModel, head_w: np.ndarray,
                       head_b: np.ndarray, ids: np.ndarray, lens: np.ndarray,
                       batch_size: int = 32) -> np.ndarray:
    outs = []
    for i in range(0, len(ids), batch_size):
        h = model.hidden(ids[i:i + batch_size])
        w = _pool_weights(lens[i:i + batch_size], ids.shape[1], h.dtype)
        outs.append((h * w).sum(axis=1) @ head_w + head_b)
    return np.concatenate(outs)


def _task_metrics(task_kind: str, k: int, logits: np.ndarray,
                  targets: np.ndarray) -> dict:
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
        z = logits[:, 1] - logits[:, 0]
        score = 1.0 / (1.0 + np.exp(-z))
        out["precision"] = M.precision(preds, targets)
        out["recall"] = M.recall(preds, targets)
        out["f1"] = M.f1(preds, targets)
        out["auc_roc"] = M.auc_roc(score, targets)
        out["auc_pr"] = M.auc_pr(score, targets)
    else:
        out["f1"] = M.f1(preds, targets, averaging="macro", n_classes=k)
    return out


def finetune_classify(ckpt: Checkpoint, train_ds: LabeledDataset,
                      test_ds: LabeledDataset, mode: str = "all_layers", *,
                      config: TrainConfig, head_seed: int = 0) -> FinetuneResult:
    """Attach a fresh linear head over the mean-pooled final hidden state
    and train it (head_only) or the whole network (all_layers).

    In head_only mode every backbone parameter is frozen: gradients are
    exactly zero and the weights come back bit-identical.
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
    rng = np.random.default_rng(head_seed)
    head_w = Tensor((INIT_STD * rng.standard_normal(
        (model.config.hidden, k))).astype(np.float32), requires_grad=True)
    head_b = Tensor(np.zeros(k, dtype=np.float32), requires_grad=True)

    if mode == "head_only":
        for p in model.params.values():
            p.requires_grad = False
        trainable = {"classifier.w": head_w, "classifier.b": head_b}
    else:
        trainable = dict(model.named_params())
        trainable["classifier.w"] = head_w
        trainable["classifier.b"] = head_b

    state = AdamState(trainable)
    schedule = BatchSchedule(len(train_ds), config.batch_size, config.seed)
    width = train_ids.shape[1]

    for i in range(config.total_iters):
        idx = schedule.indices(i)
        h = model.forward_hidden(train_ids[idx])
        w = Tensor(_pool_weights(train_lens[idx], width))
        pooled = K.sum_axis(K.mul(h, w), axis=1)
        logits = K.add(K.matmul(pooled, head_w), head_b)
        if task == "multilabel":
            loss = K.sigmoid_bce(logits, train_ds.targets[idx])
        else:
            loss = K.cross_entropy(logits, train_ds.targets[idx])
        optimizer_step(loss, trainable, state, i + 1, config)

    scores = _classifier_scores(model, head_w.data, head_b.data,
                                test_ids, test_lens)
    record = _task_metrics(task, k, scores, test_ds.targets)
    record.update({"task": task, "mode": mode, "n_train": len(train_ds),
                   "n_test": len(test_ds), "steps": config.total_iters})
    return FinetuneResult(
        metrics=record,
        backbone={name: p.data.copy() for name, p in model.named_params().items()},
        head_w=head_w.data.copy(),
        head_b=head_b.data.copy(),
    )


def write_metrics(record: dict, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as f:
        json.dump(record, f, sort_keys=True, indent=2)
        f.write("\n")
