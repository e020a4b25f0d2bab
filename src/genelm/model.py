"""Autoregressive decoder: embeddings, pre-norm attention blocks with
rotary positions, gated feed-forward blocks, final norm, LM head.

All linear maps are bias-free. Inputs are token id arrays of shape (t,) or
(batch, t); logits[i] is the distribution over token i+1.
"""

from __future__ import annotations

import math
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
        if self.n_heads < 1 or self.hidden % self.n_heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by n_heads {self.n_heads}")
        if (self.hidden // self.n_heads) % 2 != 0:
            raise ValueError(f"head_dim {self.hidden // self.n_heads} must be even "
                             "(rotary coordinate pairs)")
        if self.max_seq_len < 2:
            raise ValueError(f"max_seq_len must be >= 2, got {self.max_seq_len}")
        if self.rope_base <= 0:
            raise ValueError(f"rope_base must be positive, got {self.rope_base}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


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


_LAYER_FIELDS = ("attn_norm_gain", "wq", "wk", "wv", "wo",
                 "ffn_norm_gain", "w1", "w2", "w3")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Name -> shape map in the canonical (checkpoint payload) order."""
    h, f, v = cfg.hidden, cfg.ffn_dim, cfg.vocab_size
    shapes: dict[str, tuple] = {"token_embedding": (v, h)}
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        shapes[p + "attn_norm_gain"] = (h,)
        shapes[p + "wq"] = (h, h)
        shapes[p + "wk"] = (h, h)
        shapes[p + "wv"] = (h, h)
        shapes[p + "wo"] = (h, h)
        shapes[p + "ffn_norm_gain"] = (h,)
        shapes[p + "w1"] = (h, f)
        shapes[p + "w2"] = (f, h)
        shapes[p + "w3"] = (h, f)
    shapes["final_norm_gain"] = (h,)
    if not cfg.tie_embeddings:
        shapes["lm_head"] = (h, v)
    return shapes


INIT_STD = 0.02


def init_params(cfg: ModelConfig, seed: int = 0,
                dtype=np.float32) -> dict[str, Tensor]:
    """Gaussian(0, 0.02) matrices, unit gains; deterministic in the seed."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith("norm_gain"):
            data = np.ones(shape, dtype=dtype)
        else:
            data = (INIT_STD * rng.standard_normal(shape)).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def param_count(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(cfg).values())


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
    return K.rope_rotate(x, cos[:t].astype(dt), sin[:t].astype(dt))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def attention_block(x: Tensor, layer: LayerParams,
                    angles: tuple[np.ndarray, np.ndarray],
                    n_heads: int, eps: float) -> Tensor:
    """x + Wo . MHA(rmsnorm(x)); strictly causal, scores scaled by
    1/sqrt(head_dim). x is (batch, t, hidden)."""
    B, t, h = x.shape
    d = h // n_heads
    xn = K.rmsnorm(x, layer.attn_norm_gain, eps)
    heads = []
    for w in (layer.wq, layer.wk, layer.wv):
        proj = K.matmul(xn, w)
        heads.append(K.transpose(K.reshape(proj, (B, t, n_heads, d)), (0, 2, 1, 3)))
    q, k, v = heads
    q = rope_apply(q, angles)
    k = rope_apply(k, angles)
    att = K.causal_attention(q, k, v, 1.0 / math.sqrt(d))
    merged = K.reshape(K.transpose(att, (0, 2, 1, 3)), (B, t, h))
    return K.add(x, K.matmul(merged, layer.wo))


def ffn_block(x: Tensor, layer: LayerParams, eps: float) -> Tensor:
    """x + W2 . (silu(W1 . rmsnorm(x)) * (W3 . rmsnorm(x)))."""
    xn = K.rmsnorm(x, layer.ffn_norm_gain, eps)
    gated = K.mul(K.silu(K.matmul(xn, layer.w1)), K.matmul(xn, layer.w3))
    return K.add(x, K.matmul(gated, layer.w2))


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
            LayerParams(**{f: params[f"layers.{i}.{f}"] for f in _LAYER_FIELDS})
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

    def param_count(self) -> int:
        return sum(p.data.size for p in self.named_params().values())

    def _rope(self) -> tuple[np.ndarray, np.ndarray]:
        if self._angles is None:
            self._angles = rope_angles(self.config.head_dim, self.config.rope_base,
                                       np.arange(self.config.max_seq_len))
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
        angles = self._rope()
        x = K.embedding(self.params["token_embedding"], ids)
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
        """Graph-free forward for evaluation."""
        with K.no_grad():
            return self.forward(tokens).data

    def hidden(self, tokens: np.ndarray, layer: int | None = None) -> np.ndarray:
        """Graph-free hidden states; squeezes the batch axis for 1-D input."""
        squeeze = np.asarray(tokens).ndim == 1
        with K.no_grad():
            h = self.forward_hidden(tokens, layer).data
        return h[0] if squeeze else h
