"""Autoregressive decoder: embeddings, pre-norm attention blocks with
rotary positions, gated feed-forward blocks, final norm, LM head.

All linear maps are bias-free. Inputs are token id arrays of shape (t,) or
(batch, t); logits[i] is the distribution over token i+1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import kernels as K
from .errors import ContextOverflowError
from .kernels import Tensor
from .tokenizer import VOCAB_SIZE


@dataclass
class ModelConfig:
    vocab_size: int = VOCAB_SIZE
    hidden: int = 128
    n_layers: int = 4
    n_heads: int = 4
    ffn_dim: int = 352
    max_seq_len: int = 512
    rope_base: float = 10000.0
    norm_eps: float = 1e-5
    tie_embeddings: bool = False

    def __post_init__(self):
        for name in ("vocab_size", "hidden", "n_layers", "n_heads", "ffn_dim", "max_seq_len"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name in ("rope_base", "norm_eps"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value) or value <= 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if not isinstance(self.tie_embeddings, bool):
            raise ValueError(f"tie_embeddings must be a boolean, got {self.tie_embeddings!r}")
        if self.hidden % self.n_heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by n_heads {self.n_heads}")
        if (self.hidden // self.n_heads) % 2 != 0:
            raise ValueError(f"head_dim {self.hidden // self.n_heads} must be even "
                             "(rotary coordinate pairs)")
        if self.max_seq_len < 2:
            raise ValueError(f"max_seq_len must be >= 2, got {self.max_seq_len}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads


@dataclass
class LayerParams:
    attn_norm_gain: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ffn_norm_gain: Tensor
    w1: Tensor
    w2: Tensor
    w3: Tensor


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Name -> shape map in the canonical (checkpoint payload) order."""
    h, f, v = cfg.hidden, cfg.ffn_dim, cfg.vocab_size
    layer = {"attn_norm_gain": (h,), "wq": (h, h), "wk": (h, h), "wv": (h, h),
             "wo": (h, h), "ffn_norm_gain": (h,), "w1": (h, f), "w2": (f, h),
             "w3": (h, f)}
    shapes: dict[str, tuple] = {"token_embedding": (v, h)}
    for i in range(cfg.n_layers):
        shapes.update({f"layers.{i}.{n}": s for n, s in layer.items()})
    shapes["final_norm_gain"] = (h,)
    if not cfg.tie_embeddings:
        shapes["lm_head"] = (h, v)
    return shapes


INIT_STD = 0.02


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Gaussian(0, 0.02) matrices, unit gains; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith("norm_gain"):
            data = np.ones(shape, dtype=np.float32)
        else:
            data = (INIT_STD * rng.standard_normal(shape)).astype(np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# rotary position tables
# ---------------------------------------------------------------------------

def rope_angles(head_dim: int, base: float, positions) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) tables of shape (len(positions), head_dim/2).

    Pair i at position m rotates by m * theta_i with theta_i = base^(-2i/head_dim),
    so raising the base shrinks every nonzero rotation rate.
    """
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even, got {head_dim}")
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    pos = np.asarray(positions, dtype=np.float64)
    theta = base ** (-2.0 * np.arange(head_dim // 2, dtype=np.float64) / head_dim)
    angles = np.outer(pos, theta)
    return np.cos(angles), np.sin(angles)


def rope_apply(x: Tensor, angles: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Rotate consecutive coordinate pairs of x (..., t, head_dim) by the
    per-(position, pair) angles."""
    cos, sin = angles
    t = x.shape[-2]
    dt = x.dtype
    return K.rope_rotate(x, cos[:t].astype(dt, copy=False), sin[:t].astype(dt, copy=False))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def attention_block(x: Tensor, layer: LayerParams,
                    angles: tuple[np.ndarray, np.ndarray],
                    n_heads: int, eps: float) -> Tensor:
    """x + Wo . MHA(rmsnorm(x)); strictly causal, scores scaled by
    1/sqrt(head_dim). x is (batch, t, hidden). Each intermediate is dropped
    once used, so that without a graph only the live ones take memory."""
    B, t, h = x.shape
    d = h // n_heads
    xn = K.rmsnorm(x, layer.attn_norm_gain, eps)
    q, k, v = (K.transpose(K.reshape(K.matmul(xn, w), (B, t, n_heads, d)), (0, 2, 1, 3))
               for w in (layer.wq, layer.wk, layer.wv))
    del xn
    q = rope_apply(q, angles)
    k = rope_apply(k, angles)
    att = K.causal_attention(q, k, v, 1.0 / math.sqrt(d))
    del q, k, v
    merged = K.reshape(K.transpose(att, (0, 2, 1, 3)), (B, t, h))
    del att
    return K.add(x, K.matmul(merged, layer.wo))


def ffn_block(x: Tensor, layer: LayerParams, eps: float) -> Tensor:
    """x + W2 . (silu(W1 . rmsnorm(x)) * (W3 . rmsnorm(x))); without a graph
    over fixed chunks of rows (`K.rows`)."""
    def block(xs: Tensor) -> Tensor:
        xn = K.rmsnorm(xs, layer.ffn_norm_gain, eps)
        gated = K.mul(K.silu(K.matmul(xn, layer.w1)), K.matmul(xn, layer.w3))
        return K.add(xs, K.matmul(gated, layer.w2))

    return K.rows(block, x)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class LanguageModel:
    """Decoder over token windows. Read-only during evaluation; training
    steps need exclusive access."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        expected = set(param_shapes(config))
        missing = expected - set(params)
        if missing:
            raise ValueError(f"missing parameters: {sorted(missing)}")
        self.config = config
        self.params = params
        self.layers = [
            LayerParams(**{f.name: params[f"layers.{i}.{f.name}"]
                           for f in fields(LayerParams)})
            for i in range(config.n_layers)
        ]
        self._angles: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "LanguageModel":
        return cls(config, init_params(config, seed))

    @property
    def max_seq_len(self) -> int:
        return self.config.max_seq_len

    def named_params(self) -> dict[str, Tensor]:
        return {name: self.params[name] for name in param_shapes(self.config)}

    def _rope(self, t: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """Rotary tables in the activations' dtype for at least t positions:
        as long as the longest input so far, not max_seq_len, which a
        checkpoint header can set to any size."""
        if (self._angles is None or len(self._angles[0]) < t
                or self._angles[0].dtype != dtype):
            tables = rope_angles(self.config.head_dim, self.config.rope_base, np.arange(t))
            self._angles = tuple(a.astype(dtype, copy=False) for a in tables)
        return self._angles

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be 1-D or 2-D, got shape {tokens.shape}")
        t = tokens.shape[1]
        if t < 1:
            raise ValueError("empty token sequence")
        if t > self.config.max_seq_len:
            raise ContextOverflowError(
                f"sequence length {t} exceeds max context {self.config.max_seq_len}")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise ValueError(f"token id outside vocabulary of size {self.config.vocab_size}")
        return tokens.astype(np.int64, copy=False)

    def forward_hidden(self, tokens: np.ndarray, layer: int | None = None) -> Tensor:
        """Hidden states (batch, t, hidden): the final-norm output by
        default, or the residual stream right after block `layer`."""
        cfg = self.config
        ids = self._check_tokens(tokens)
        x = K.embedding(self.params["token_embedding"], ids)
        angles = self._rope(ids.shape[1], x.dtype)
        for i, lp in enumerate(self.layers):
            x = attention_block(x, lp, angles, cfg.n_heads, cfg.norm_eps)
            x = ffn_block(x, lp, cfg.norm_eps)
            if layer is not None and layer == i:
                return x
        if layer is not None:
            raise ValueError(f"layer {layer} out of range for {cfg.n_layers} layers")
        return K.rmsnorm(x, self.params["final_norm_gain"], cfg.norm_eps)

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Logits (batch, t, vocab), or (t, vocab) for 1-D input."""
        squeeze = np.asarray(tokens).ndim == 1
        h = self.forward_hidden(tokens)
        if self.config.tie_embeddings:
            logits = K.matmul(h, K.transpose(self.params["token_embedding"], (1, 0)))
        else:
            logits = K.matmul(h, self.params["lm_head"])
        if squeeze:
            logits = K.reshape(logits, logits.shape[1:])
        return logits

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Graph-free forward for evaluation; long sequences use every core
        (`K.cores_for`)."""
        with K.no_grad(), K.cores_for(np.shape(tokens)[-1]):
            return self.forward(tokens).data

    def hidden(self, tokens: np.ndarray, layer: int | None = None) -> np.ndarray:
        """Graph-free hidden states; squeezes the batch axis for 1-D input.
        Long sequences use every core (`K.cores_for`)."""
        squeeze = np.asarray(tokens).ndim == 1
        with K.no_grad(), K.cores_for(np.shape(tokens)[-1]):
            h = self.forward_hidden(tokens, layer).data
        return h[0] if squeeze else h
