"""Float64 reference forward, written from the architecture the program's
README describes rather than imported from genelm.kernels or genelm.model:

token embedding -> n_layers x [x + Wo . causal softmax attention over
rotary-rotated heads of RMSNorm(x); x + W2 . (silu(W1 . RMSNorm(x)) *
(W3 . RMSNorm(x)))] -> final RMSNorm -> LM head.

Checkpoints are read straight from their documented layout: a magic line,
a JSON header line, then little-endian float32 tensors in header order.
"""

from __future__ import annotations

import json

import numpy as np

MIN_BASE_ID = 2  # PAD and UNK targets are not scored


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(model config, float64 parameters) from a checkpoint file."""
    with open(path, "rb") as f:
        if f.readline() != b"GENELM-CKPT v1\n":
            raise ValueError(f"{path}: not a checkpoint")
        header = json.loads(f.readline())
        payload = f.read()
    flat = np.frombuffer(payload, dtype="<f4")
    params, off = {}, 0
    for name, shape in header["tensors"]:
        size = int(np.prod(shape))
        params[name] = flat[off:off + size].reshape(shape).astype(np.float64)
        off += size
    return header["model_config"], params


def _rmsnorm(x, gain, eps):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * gain


def _rotate(x, cos, sin):
    """Rotate coordinate pairs (2i, 2i+1) of the trailing axis."""
    out = np.empty_like(x)
    xe, xo = x[..., 0::2], x[..., 1::2]
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos
    return out


def _attention(q, k, v, block: int = 512):
    """Causal softmax(q k^T / sqrt(d)) v for (n, t, d) stacks, in query
    blocks that only read the keys they may see."""
    n, t, d = q.shape
    out = np.empty_like(q)
    for r0 in range(0, t, block):
        r1 = min(r0 + block, t)
        s = np.matmul(q[:, r0:r1], k[:, :r1].transpose(0, 2, 1)) / np.sqrt(d)
        s += np.triu(np.full((r1 - r0, r1), -np.inf), k=r0 + 1)  # keys after the query
        s = np.exp(s - s.max(axis=2, keepdims=True))
        out[:, r0:r1] = np.matmul(s / s.sum(axis=2, keepdims=True), v[:, :r1])
    return out


def forward(cfg: dict, params: dict[str, np.ndarray], ids: np.ndarray):
    """(logits, final hidden) in float64 for a (batch, t) id array."""
    ids = np.asarray(ids, dtype=np.int64)
    batch, t = ids.shape
    h, n_heads, eps = cfg["hidden"], cfg["n_heads"], cfg["norm_eps"]
    d = h // n_heads
    theta = cfg["rope_base"] ** (-2.0 * np.arange(d // 2) / d)
    angles = np.outer(np.arange(t, dtype=np.float64), theta)
    cos, sin = np.cos(angles), np.sin(angles)
    x = params["token_embedding"][ids.ravel()]  # (batch * t, h) rows

    def heads(w):  # (batch * n_heads, t, d)
        return (x_norm @ w).reshape(batch, t, n_heads, d).transpose(0, 2, 1, 3).reshape(-1, t, d)

    for i in range(cfg["n_layers"]):
        p = lambda name: params[f"layers.{i}.{name}"]
        x_norm = _rmsnorm(x, p("attn_norm_gain"), eps)
        att = _attention(_rotate(heads(p("wq")), cos, sin), _rotate(heads(p("wk")), cos, sin),
                         heads(p("wv")))
        x = x + att.reshape(batch, n_heads, t, d).transpose(0, 2, 1, 3).reshape(-1, h) @ p("wo")
        x_norm = _rmsnorm(x, p("ffn_norm_gain"), eps)
        a = x_norm @ p("w1")
        x = x + ((a / (1.0 + np.exp(-a))) * (x_norm @ p("w3"))) @ p("w2")
    hidden = _rmsnorm(x, params["final_norm_gain"], eps)
    head = params["token_embedding"].T if cfg["tie_embeddings"] else params["lm_head"]
    return (hidden @ head).reshape(batch, t, -1), hidden.reshape(batch, t, h)


def outputs(cfg: dict, params: dict, sequences, cache: dict | None = None) -> list:
    """(logits, hidden) per 1-D id sequence, one forward each (batching
    only adds memory traffic here). `cache`, keyed by the ids, lets callers
    share forwards between checks."""
    cache = {} if cache is None else cache
    seqs = [np.asarray(s) for s in sequences]
    todo = [s for s in seqs if (s.dtype.str, s.tobytes()) not in cache]
    for s in todo:
        logits, hidden = forward(cfg, params, s[None])
        cache[s.dtype.str, s.tobytes()] = (logits[0], hidden[0])
    return [cache[s.dtype.str, s.tobytes()] for s in seqs]


def score(cfg: dict, params: dict, sequences, cache: dict | None = None) -> tuple[float, int, int]:
    """(nll_sum, n_scored, n_correct) pooled over sequences: next-token
    log-softmax NLL and argmax hits at positions whose target is a base."""
    total, n_total, correct = 0.0, 0, 0
    for ids, (logits, _) in zip(sequences, outputs(cfg, params, sequences, cache)):
        logits, targets = logits[:-1], np.asarray(ids[1:], dtype=np.int64)
        keep = targets >= MIN_BASE_ID
        logits, targets = logits[keep], targets[keep]
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        total += float(-logp[np.arange(len(targets)), targets].sum())
        n_total += len(targets)
        correct += int((logits.argmax(axis=1) == targets).sum())
    return total, n_total, correct


def embeddings(cfg: dict, params: dict, sequences, cache: dict | None = None) -> np.ndarray:
    """Max-pooled final hidden state per sequence; over-length inputs are
    cut into context-length chunks and the per-chunk maxima averaged."""
    ctx = cfg["max_seq_len"]
    chunks = [[s[i:i + ctx] for i in range(0, len(s), ctx)] for s in sequences]
    outs = iter(outputs(cfg, params, [c for cs in chunks for c in cs], cache))
    return np.stack([np.mean([next(outs)[1].max(axis=0) for _ in cs], axis=0) for cs in chunks])
