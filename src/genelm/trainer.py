"""Optimization: warmup/decay schedules, AdamW with decoupled weight decay,
gradient clipping, staged context-extension training, checkpoint files.

Training is fully deterministic: batch order is a pure function of
(data seed, step), so a run resumed from a checkpoint reproduces the
uninterrupted run bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import kernels as K
from .errors import (CheckpointFormatError, DataConfigError, ShapeError,
                     TrainingDivergedError)
from .kernels import Tensor
from .model import LanguageModel, ModelConfig, param_shapes
from .tokenizer import BASE_IDS

CKPT_MAGIC = "GENELM-CKPT v1"

_MIN_BASE_ID = min(BASE_IDS.values())


@dataclass
class TrainConfig:
    batch_size: int = 8
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    max_grad_norm: float = 1.0
    lr_peak: float = 4.8e-4
    lr_min: float = 4.8e-5
    warmup_iters: int = 50
    total_iters: int = 1000
    seed: int = 0
    schedule: str = "cosine"  # "cosine" or "linear" decay after warmup

    def __post_init__(self):
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if self.warmup_iters > self.total_iters:
            raise ValueError(f"warmup_iters {self.warmup_iters} exceeds "
                             f"total_iters {self.total_iters}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.schedule not in ("cosine", "linear"):
            raise ValueError(f"unknown schedule {self.schedule!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def finetune_config(total_iters: int, *, batch_size: int = 8,
                    lr: float = 1e-4, schedule: str = "linear",
                    warmup_ratio: float = 0.1, seed: int = 0) -> TrainConfig:
    """Defaults for downstream finetuning: AdamW betas 0.9/0.999, no weight
    decay, linear decay to zero with a 10% warmup."""
    return TrainConfig(batch_size=batch_size, beta1=0.9, beta2=0.999,
                       weight_decay=0.0, lr_peak=lr, lr_min=0.0,
                       warmup_iters=int(round(warmup_ratio * total_iters)),
                       total_iters=total_iters, seed=seed, schedule=schedule)


def species_finetune_config(total_iters: int, **kw) -> TrainConfig:
    """Species-style classification wants a lower rate and cosine decay."""
    kw.setdefault("lr", 1e-5)
    kw.setdefault("schedule", "cosine")
    return finetune_config(total_iters, **kw)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear 0 -> lr_peak over the warmup, then cosine (or linear) decay
    from lr_peak to lr_min over the remaining iterations."""
    if step < 0 or step > cfg.total_iters:
        raise ValueError(f"step {step} outside [0, {cfg.total_iters}]")
    if step < cfg.warmup_iters:
        return cfg.lr_peak * step / cfg.warmup_iters
    if step == cfg.warmup_iters:
        return cfg.lr_peak
    u = (step - cfg.warmup_iters) / (cfg.total_iters - cfg.warmup_iters)
    if cfg.schedule == "linear":
        return cfg.lr_peak + (cfg.lr_min - cfg.lr_peak) * u
    return cfg.lr_min + (cfg.lr_peak - cfg.lr_min) * (1.0 + math.cos(math.pi * u)) / 2.0


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moment buffers per parameter name."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}


def grad_global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(np.square(g, dtype=np.float64)))
                         for g in grads.values()))


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is at most
    max_norm; returns the factor applied (1.0 when under the cap)."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = grad_global_norm(grads)
    if total <= max_norm:
        return 1.0
    factor = max_norm / total
    for g in grads.values():
        g *= np.asarray(factor, dtype=g.dtype)
    return factor


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: AdamState, step: int, lr: float, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update; `step` is 1-based for the
    bias correction. Raises TrainingDivergedError on NaN gradients."""
    bc1 = 1.0 - cfg.beta1 ** step
    bc2 = 1.0 - cfg.beta2 ** step
    for name, p in params.items():
        g = grads[name]
        if np.isnan(g).any():
            raise TrainingDivergedError(f"NaN gradient in {name}", step)
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * np.square(g)
        if cfg.weight_decay:
            p.data *= p.data.dtype.type(1.0 - lr * cfg.weight_decay)
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        p.data -= (lr * update).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: TrainConfig
    params: dict[str, np.ndarray]
    moments: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] | None
    step: int
    stage: int
    data_seed: int

    def build_model(self) -> LanguageModel:
        tensors = {n: Tensor(a.copy(), requires_grad=True)
                   for n, a in self.params.items()
                   if n in param_shapes(self.model_config)}
        return LanguageModel(self.model_config, tensors)


def save_checkpoint(ckpt: Checkpoint, path: str | os.PathLike) -> None:
    """Write `ckpt` to `path` atomically: the bytes go to a temporary file in
    the same directory, which then replaces `path`, so a failed write leaves
    any previous checkpoint at `path` intact."""
    names = list(ckpt.params)
    blobs = [np.ascontiguousarray(ckpt.params[n], dtype="<f4").tobytes() for n in names]
    if ckpt.moments is not None:
        for part in ckpt.moments:
            blobs.extend(np.ascontiguousarray(part[n], dtype="<f4").tobytes()
                         for n in names)
    payload = b"".join(blobs)
    header = {
        "model_config": ckpt.model_config.to_dict(),
        "train_config": ckpt.train_config.to_dict(),
        "step": ckpt.step,
        "stage": ckpt.stage,
        "data_seed": ckpt.data_seed,
        "has_moments": ckpt.moments is not None,
        "tensors": [[n, list(ckpt.params[n].shape)] for n in names],
        "payload_crc32": zlib.crc32(payload),
    }
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(f"{CKPT_MAGIC}\n".encode("ascii"))
            f.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path: str | os.PathLike,
                    expected_config: ModelConfig | None = None) -> Checkpoint:
    with open(path, "rb") as f:
        magic = f.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != CKPT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {magic[:40]!r}")
        try:
            header = json.loads(f.readline().decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError(f"{path}: unreadable header") from exc
        payload = f.read()

    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise CheckpointFormatError(f"{path}: payload checksum mismatch")

    names = [n for n, _ in header["tensors"]]
    shapes = {n: tuple(s) for n, s in header["tensors"]}
    n_params = sum(int(np.prod(shapes[n])) for n in names)
    copies = 3 if header["has_moments"] else 1
    if len(payload) != 4 * n_params * copies:
        raise CheckpointFormatError(
            f"{path}: payload is {len(payload)} bytes, header declares "
            f"{4 * n_params * copies}")

    flat = np.frombuffer(payload, dtype="<f4")
    parts = []
    off = 0
    for _ in range(copies):
        d = {}
        for n in names:
            size = int(np.prod(shapes[n]))
            d[n] = flat[off:off + size].reshape(shapes[n]).copy()
            off += size
        parts.append(d)

    model_config = ModelConfig(**header["model_config"])
    if expected_config is not None:
        want = param_shapes(expected_config)
        for n in names:
            if n in want and tuple(want[n]) != shapes[n]:
                raise ShapeError(
                    f"tensor {n}: checkpoint shape {shapes[n]} does not match "
                    f"config shape {tuple(want[n])}")
        missing = set(want) - set(names)
        if missing:
            raise ShapeError(f"checkpoint lacks tensors: {sorted(missing)}")

    return Checkpoint(
        model_config=model_config,
        train_config=TrainConfig(**header["train_config"]),
        params=parts[0],
        moments=(parts[1], parts[2]) if header["has_moments"] else None,
        step=header["step"],
        stage=header["stage"],
        data_seed=header["data_seed"],
    )


# ---------------------------------------------------------------------------
# batch order: a pure function of (seed, step)
# ---------------------------------------------------------------------------

class _BatchSchedule:
    """Infinite deterministic stream of window indices: per-epoch seeded
    permutations, concatenated. Resuming recomputes the same stream."""

    def __init__(self, n_windows: int, batch_size: int, seed: int):
        self.n = n_windows
        self.batch = batch_size
        self.seed = seed
        self._perms: dict[int, np.ndarray] = {}

    def _perm(self, epoch: int) -> np.ndarray:
        if epoch not in self._perms:
            self._perms.clear()  # only neighbouring epochs are ever needed
            self._perms[epoch] = np.random.default_rng(
                [self.seed, epoch]).permutation(self.n)
        return self._perms[epoch]

    def indices(self, step: int) -> np.ndarray:
        out = np.empty(self.batch, dtype=np.int64)
        for j in range(self.batch):
            p = step * self.batch + j
            out[j] = self._perm(p // self.n)[p % self.n]
        return out


# ---------------------------------------------------------------------------
# stage training
# ---------------------------------------------------------------------------

def _loss_targets(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-token targets and scoring mask; the final position and PAD/UNK
    targets are excluded from the loss."""
    tg = np.zeros_like(batch)
    tg[:, :-1] = batch[:, 1:]
    mask = np.zeros(batch.shape, dtype=bool)
    mask[:, :-1] = tg[:, :-1] >= _MIN_BASE_ID
    return tg, mask


def train_stage(model_config: ModelConfig, train_config: TrainConfig,
                data: np.ndarray, *, start: Checkpoint | None = None,
                data_seed: int = 0, stage_index: int = 0, init_seed: int = 0,
                log_path: str | os.PathLike | None = None,
                stop_at_step: int | None = None,
                ) -> tuple[Checkpoint, list[dict]]:
    """Run next-token training at model_config.max_seq_len over the shard.

    `data` is a (n_windows, window_len) uint8 id matrix with window_len >=
    the context length; each batch uses the leading context_len tokens.
    Pass `stop_at_step` to checkpoint mid-schedule and `start` to resume;
    the continuation is bit-identical to an uninterrupted run with the
    same seeds.
    """
    ctx = model_config.max_seq_len
    if data.ndim != 2 or data.shape[0] == 0:
        raise DataConfigError(f"need a non-empty 2-D shard, got shape {data.shape}")
    if data.shape[1] < ctx:
        raise DataConfigError(
            f"windows of {data.shape[1]} tokens are shorter than the "
            f"stage context {ctx}")

    if start is not None:
        if start.model_config != model_config:
            raise ShapeError("resume config does not match checkpoint config")
        model = start.build_model()
        state = AdamState(model.named_params())
        if start.moments is not None:
            for n in state.m:
                state.m[n][...] = start.moments[0][n]
                state.v[n][...] = start.moments[1][n]
        step0 = start.step
        data_seed = start.data_seed
    else:
        model = LanguageModel.init(model_config, seed=init_seed)
        state = AdamState(model.named_params())
        step0 = 0

    end_step = train_config.total_iters
    if stop_at_step is not None:
        end_step = min(stop_at_step, end_step)
    params = model.named_params()
    schedule = _BatchSchedule(data.shape[0], train_config.batch_size, data_seed)
    log_file = open(log_path, "a", encoding="ascii") if log_path else None
    metrics: list[dict] = []
    try:
        for i in range(step0, end_step):
            t_start = time.perf_counter()
            idx = schedule.indices(i)
            batch = data[idx, :ctx].astype(np.int64)
            targets, mask = _loss_targets(batch)
            logits = model.forward(batch)
            loss = K.cross_entropy(logits, targets, mask)
            loss_val = float(loss.data)
            if math.isnan(loss_val):
                raise TrainingDivergedError("NaN loss", i + 1)
            K.backward(loss)
            grads = {n: (p.grad if p.grad is not None else np.zeros_like(p.data))
                     for n, p in params.items()}
            norm = grad_global_norm(grads)
            clip_global_norm(grads, train_config.max_grad_norm)
            lr = lr_at(i + 1, train_config)
            adamw_step(params, grads, state, i + 1, lr, train_config)
            for p in params.values():
                p.grad = None
            row = {
                "step": i + 1,
                "lr": lr,
                "loss": loss_val,
                "ppl": math.exp(loss_val) if loss_val < 700 else math.inf,
                "grad_norm": norm,
                "tokens_seen": (i + 1) * train_config.batch_size * ctx,
                "wall_ms": (time.perf_counter() - t_start) * 1e3,
            }
            metrics.append(row)
            if log_file:
                log_file.write(json.dumps(row) + "\n")
    finally:
        if log_file:
            log_file.close()

    ckpt = Checkpoint(
        model_config=model_config,
        train_config=train_config,
        params={n: p.data.copy() for n, p in params.items()},
        moments=({n: a.copy() for n, a in state.m.items()},
                 {n: a.copy() for n, a in state.v.items()}),
        step=end_step,
        stage=stage_index,
        data_seed=data_seed,
    )
    return ckpt, metrics


# ---------------------------------------------------------------------------
# context extension
# ---------------------------------------------------------------------------

def default_rope_base(prev_base: float, prev_len: int, new_len: int) -> float:
    """Default per-stage rotary base: scale by the squared length ratio."""
    return prev_base * (new_len / prev_len) ** 2


def prepare_extension(ckpt: Checkpoint, new_context_len: int,
                      new_rope_base: float | None = None) -> Checkpoint:
    """Same weights, longer context, rescaled rotary base, fresh optimizer
    state. No learnable parameter changes."""
    old = ckpt.model_config
    if new_context_len <= old.max_seq_len:
        raise ValueError(
            f"new context {new_context_len} must exceed current {old.max_seq_len}")
    if new_rope_base is None:
        new_rope_base = default_rope_base(old.rope_base, old.max_seq_len,
                                          new_context_len)
    cfg = replace(old, max_seq_len=new_context_len, rope_base=new_rope_base)
    return Checkpoint(
        model_config=cfg,
        train_config=ckpt.train_config,
        params={n: a.copy() for n, a in ckpt.params.items()},
        moments=None,
        step=0,
        stage=ckpt.stage + 1,
        data_seed=ckpt.data_seed,
    )


def extend_context(ckpt: Checkpoint, new_context_len: int,
                   new_rope_base: float | None,
                   extension_config: TrainConfig, data: np.ndarray,
                   *, log_path: str | os.PathLike | None = None,
                   ) -> tuple[Checkpoint, list[dict]]:
    """Continue pretraining at a longer context length."""
    prep = prepare_extension(ckpt, new_context_len, new_rope_base)
    prep = replace(prep, train_config=extension_config)
    return train_stage(prep.model_config, extension_config, data,
                       start=prep, stage_index=prep.stage, log_path=log_path)


# ---------------------------------------------------------------------------
# multi-stage plans
# ---------------------------------------------------------------------------

@dataclass
class Stage:
    context_len: int
    train_config: TrainConfig
    rope_base: float | None = None  # None: stage 0 uses the model default,
    #                                 later stages the squared-ratio rescale


@dataclass
class StagePlan:
    stages: list[Stage] = field(default_factory=list)

    def __post_init__(self):
        lens = [s.context_len for s in self.stages]
        if any(b <= a for a, b in zip(lens, lens[1:])):
            raise ValueError(f"stage context lengths must strictly increase: {lens}")


def run_plan(plan: StagePlan, base_config: ModelConfig, windows_by_stage,
             *, data_seed: int = 0, init_seed: int = 0,
             ) -> tuple[Checkpoint, list[list[dict]]]:
    """Train every stage in order; stage i+1 starts from stage i's weights.

    `windows_by_stage[i]` is the (n, >=context_len) uint8 shard for stage i
    (the same corpus re-windowed at each stage's length).
    """
    if len(windows_by_stage) != len(plan.stages):
        raise DataConfigError("need one shard per stage")
    ckpt: Checkpoint | None = None
    logs: list[list[dict]] = []
    for i, stage in enumerate(plan.stages):
        if ckpt is None:
            cfg = replace(base_config, max_seq_len=stage.context_len,
                          rope_base=stage.rope_base or base_config.rope_base)
            ckpt, rows = train_stage(cfg, stage.train_config, windows_by_stage[i],
                                     data_seed=data_seed, stage_index=i,
                                     init_seed=init_seed)
        else:
            ckpt, rows = extend_context(ckpt, stage.context_len, stage.rope_base,
                                        stage.train_config, windows_by_stage[i])
        logs.append(rows)
    return ckpt, logs
