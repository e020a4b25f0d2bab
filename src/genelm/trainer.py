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
import numbers
import os
import time
import zlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import kernels as K
from .atomic import atomic_write
from .errors import (CheckpointFormatError, DataConfigError, ShapeError,
                     TrainingDivergedError)
from .kernels import Tensor
from .model import LanguageModel, ModelConfig, param_shapes
from .tokenizer import next_token_targets

CKPT_MAGIC = "GENELM-CKPT v1"


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
        for name in ("lr_peak", "lr_min", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be a finite number > 0, got {self.eps!r}")
        if not self.max_grad_norm > 0:  # inf is allowed: it never clips
            raise ValueError(f"max_grad_norm must be > 0, got {self.max_grad_norm!r}")
        for name in ("warmup_iters", "total_iters"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if self.warmup_iters > self.total_iters:
            raise ValueError(f"warmup_iters {self.warmup_iters} exceeds "
                             f"total_iters {self.total_iters}")
        for name, least in (("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.schedule not in ("cosine", "linear"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def finetune_config(total_iters: int, *, batch_size: int = 8,
                    lr: float = 1e-4, schedule: str = "linear",
                    seed: int = 0) -> TrainConfig:
    """Defaults for downstream finetuning: AdamW betas 0.9/0.999, no weight
    decay, linear decay to zero with a 10% warmup."""
    return TrainConfig(batch_size=batch_size, beta1=0.9, beta2=0.999,
                       weight_decay=0.0, lr_peak=lr, lr_min=0.0,
                       warmup_iters=int(round(0.1 * total_iters)),
                       total_iters=total_iters, seed=seed, schedule=schedule)


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
    max_norm; returns the norm before clipping."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = grad_global_norm(grads)
    if total > max_norm or math.isnan(total):
        factor = max_norm / total
        for g in grads.values():
            g *= np.asarray(factor, dtype=g.dtype)
    return total


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


def optimizer_step(loss: Tensor | None, params: dict[str, Tensor], state: AdamState,
                   step: int, cfg: TrainConfig) -> float:
    """Backward from `loss` (None: the caller has filled the gradients),
    clip the gradients to cfg.max_grad_norm, take one AdamW step at
    lr_at(step, cfg) and zero the gradients. Parameters the loss does not
    reach get zero gradients. `step` is 1-based; returns the gradient norm
    before clipping."""
    if loss is not None:
        K.backward(loss)
    grads = {n: (p.grad if p.grad is not None else np.zeros_like(p.data))
             for n, p in params.items()}
    norm = clip_global_norm(grads, cfg.max_grad_norm)
    adamw_step(params, grads, state, step, lr_at(step, cfg), cfg)
    # zeroed in place, so the next backward accumulates into the same
    # buffers: freeing and reallocating them every step made training
    # steps about 15% slower through the allocator
    for g in grads.values():
        g.fill(0)
    return norm


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
    """Write `ckpt` to `path` atomically (see `atomic_write`): a failed write
    leaves any previous checkpoint at `path` intact."""
    names = list(ckpt.params)
    blobs = [np.ascontiguousarray(ckpt.params[n], dtype="<f4").tobytes() for n in names]
    if ckpt.moments is not None:
        for part in ckpt.moments:
            blobs.extend(np.ascontiguousarray(part[n], dtype="<f4").tobytes()
                         for n in names)
    payload = b"".join(blobs)
    header = {
        "model_config": asdict(ckpt.model_config),
        "train_config": asdict(ckpt.train_config),
        "step": ckpt.step,
        "stage": ckpt.stage,
        "data_seed": ckpt.data_seed,
        "has_moments": ckpt.moments is not None,
        "tensors": [[n, list(ckpt.params[n].shape)] for n in names],
        "payload_crc32": zlib.crc32(payload),
    }
    with atomic_write(path, "wb") as f:
        f.write(f"{CKPT_MAGIC}\n".encode("ascii"))
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        f.write(payload)


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint. The tensor manifest is
    checked against the header's own model_config: a model tensor that is
    missing or has another shape is a CheckpointFormatError naming it (extra
    tensors, such as a finetuned classifier head, are allowed). The file's
    size is checked against the header before the payload is read into one
    array, which the returned tensors are views of."""
    with open(path, "rb") as f:
        magic = f.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != CKPT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {magic[:40]!r}")
        try:
            header = json.loads(f.readline().decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointFormatError(f"{path}: unreadable header") from exc

        try:
            crc = header["payload_crc32"]
            names = [n for n, _ in header["tensors"]]
            shapes = {n: tuple(s) for n, s in header["tensors"]}
            if not all(type(d) is int and d >= 0 for s in shapes.values() for d in s):
                raise ValueError("tensor shapes must be non-negative integers")
            has_moments = header["has_moments"]
            step, stage, data_seed = (header[k] for k in ("step", "stage", "data_seed"))
            if type(has_moments) is not bool:
                raise TypeError(f"has_moments must be a boolean, got {has_moments!r}")
            for name, value in (("step", step), ("stage", stage), ("data_seed", data_seed)):
                if type(value) is not int or value < 0:
                    raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
            model_config = ModelConfig(**header["model_config"])
            train_config = TrainConfig(**header["train_config"])
        # OverflowError: an integer too large for a float, such as 10**400
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointFormatError(f"{path}: malformed header: {exc!r}") from exc
        for n, want in param_shapes(model_config).items():
            if n not in shapes:
                raise CheckpointFormatError(f"{path}: lacks tensor {n}")
            if shapes[n] != want:
                raise CheckpointFormatError(
                    f"{path}: tensor {n} has shape {shapes[n]}, the header's "
                    f"model_config needs {want}")

        copies = 3 if has_moments else 1
        expected = 4 * copies * sum(math.prod(shapes[n]) for n in names)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != expected:
            raise CheckpointFormatError(
                f"{path}: payload is {size} bytes, header declares {expected}")
        flat = np.empty(expected // 4, dtype="<f4")
        got = f.readinto(memoryview(flat))
    if got != expected:  # the file shrank after the size check
        raise CheckpointFormatError(
            f"{path}: payload is {got} bytes, header declares {expected}")
    if zlib.crc32(memoryview(flat)) != crc:
        raise CheckpointFormatError(f"{path}: payload checksum mismatch")

    parts = []
    off = 0
    for _ in range(copies):
        d = {}
        for n in names:
            size = math.prod(shapes[n])
            d[n] = flat[off:off + size].reshape(shapes[n])
            off += size
        parts.append(d)

    return Checkpoint(
        model_config=model_config,
        train_config=train_config,
        params=parts[0],
        moments=(parts[1], parts[2]) if has_moments else None,
        step=step,
        stage=stage,
        data_seed=data_seed,
    )


# ---------------------------------------------------------------------------
# batch order: a pure function of (seed, step)
# ---------------------------------------------------------------------------

class BatchSchedule:
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

def train_stage(model_config: ModelConfig, train_config: TrainConfig,
                data: np.ndarray, *, start: Checkpoint | None = None,
                data_seed: int = 0, stage_index: int | None = None, init_seed: int = 0,
                log_path: str | os.PathLike | None = None,
                stop_at_step: int | None = None,
                ) -> tuple[Checkpoint, list[dict]]:
    """Run next-token training at model_config.max_seq_len over the shard.

    `data` is a (n_windows, window_len) uint8 id matrix with window_len >=
    the context length; each batch uses the leading context_len tokens.
    Pass `stop_at_step` to checkpoint mid-schedule and `start` to resume;
    the continuation is bit-identical to an uninterrupted run with the
    same seeds. The result's stage is `stage_index`, by default `start`'s
    stage on a resume and 0 on a fresh run.

    A batch of two or more windows runs as two fixed halves, rows
    [0, B//2) and [B//2, B), each with its own gradients; half 1's
    gradients are added to half 0's before the one clip and AdamW step.
    Halves of at least `K.CORES_MIN_LEN` tokens run at once inside
    `K.cores()` (one after the other where OpenBLAS runs one thread),
    smaller ones one after the other on OpenBLAS's own threads. The split
    depends only on the batch size, so the loss curve is the same on any
    number of cores.
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
        if start.step > 0 and start.train_config != train_config:
            raise DataConfigError(
                "resume train config does not match the checkpoint's: a changed "
                "schedule cannot continue the run bit for bit")
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

    if stage_index is None:
        stage_index = start.stage if start is not None else 0
    end_step = train_config.total_iters
    if stop_at_step is not None:
        end_step = min(stop_at_step, end_step)
    params = model.named_params()
    b = train_config.batch_size
    halves = [(0, b)] if b == 1 else [(0, b // 2), (b // 2, b)]
    # one model per half over the same parameter arrays, so that each half's
    # backward writes its own gradients. Each buffer is made by the half's
    # first backward and then zeroed in place (see optimizer_step); making
    # them before the first forward measured slower and held more memory
    models = [model] + [LanguageModel(model_config, {n: Tensor(p.data, requires_grad=True)
                                                     for n, p in params.items()})
                        for _ in halves[1:]]
    schedule = BatchSchedule(data.shape[0], b, data_seed)
    metrics: list[dict] = []
    # the scope gates on the tokens one thread takes at once: a half, or a
    # batch of one. Halves of 4x128 tokens at once were faster, but the best
    # step of a process ranged over 9.2-12.9k tokens/s from one process to
    # the next, against 7.8-8.5k one after the other (2-vCPU host)
    with (open(log_path, "a", encoding="ascii") if log_path
          else contextlib.nullcontext()) as log_file, \
            K.cores_for(halves[0][1] * ctx):
        for i in range(step0, end_step):
            t_start = time.perf_counter()
            idx = schedule.indices(i)
            batch = data[idx, :ctx].astype(np.int64)
            targets, mask = next_token_targets(batch)
            total = int(mask.sum())
            if total == 0:
                raise DataConfigError(f"step {i + 1}: the batch has no scored target")
            shares = [0.0] * len(halves)

            def run(lo, hi):
                for j in range(lo, hi):
                    r0, r1 = halves[j]
                    if mask[r0:r1].any():  # a half with no scored target adds nothing
                        loss = K.cross_entropy(models[j].forward(batch[r0:r1]),
                                               targets[r0:r1], mask[r0:r1], total=total)
                        shares[j] = float(loss.data)
                        K.backward(loss)

            K.over(len(halves), run)
            for m in models[1:]:  # a fixed order: half 0 += half 1
                for n, p in m.named_params().items():
                    if p.grad is not None:  # None until the half first scores
                        if params[n].grad is None:
                            params[n].grad = np.zeros_like(p.data)
                        params[n].grad += p.grad
                        p.grad.fill(0)
            loss_val = float(np.float32(sum(shares)))
            if not math.isfinite(loss_val):
                raise TrainingDivergedError(
                    "NaN loss" if math.isnan(loss_val) else "infinite loss", i + 1)
            norm = optimizer_step(None, params, state, i + 1, train_config)
            row = {
                "step": i + 1,
                "lr": lr_at(i + 1, train_config),
                "loss": loss_val,
                "ppl": math.exp(loss_val) if loss_val < 700 else math.inf,
                "grad_norm": norm,
                "tokens_seen": (i + 1) * b * ctx,
                "wall_ms": (time.perf_counter() - t_start) * 1e3,
            }
            metrics.append(row)
            if log_file:
                log_file.write(json.dumps(row) + "\n")

    # copies, although the model and the optimizer state end here: handing
    # their arrays over measured 7-10 % slower per resumed one-step call
    # (2-vCPU host; the cause, likely in the allocator, was not isolated)
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
    return train_stage(prep.model_config, extension_config, data,
                       start=prep, log_path=log_path)
