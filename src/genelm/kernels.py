"""Dense numeric kernels with reverse-mode gradient computation.

Everything the model touches is a `Tensor`: a numpy array plus an optional
node in a compute graph. Graphs are built per forward pass and freed during
`backward`, so memory stays bounded for long sequences. Causal attention is
tiled into blocks of BLOCK query rows and never forms the t x t matrix: its
forward working set is O(B*H*BLOCK*t) and it keeps O(B*H*t*d) for the
backward pass. All arithmetic is 32-bit by default; building a graph from
float64 arrays yields a float64 graph (used by tests that want a
high-precision oracle).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import GenelmError, ShapeError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 parents: tuple = (), bwd: Callable | None = None):
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._bwd = bwd

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(x, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    """Wrap array-like data as a leaf tensor (copies into `dtype`)."""
    data = np.array(x, dtype=dtype)
    return Tensor(data, requires_grad=requires_grad)


def _result(data: np.ndarray, parents: Sequence[Tensor], bwd: Callable) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=tuple(parents), bwd=bwd)
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(out, (a, b), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _result(out, (a,), bwd)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    out = np.ascontiguousarray(a.data.transpose(axes))
    inverse = np.argsort(axes)

    def bwd(g):
        _accum(a, g.transpose(inverse))

    return _result(out, (a,), bwd)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    n = a.data.shape[axis]
    out = a.data.sum(axis=axis)

    def bwd(g):
        _accum(a, np.repeat(np.expand_dims(g, axis), n, axis=axis))

    return _result(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def bwd(g):
        _accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype))

    return _result(out, (a,), bwd)


def silu(a: Tensor) -> Tensor:
    x = a.data
    z = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(x.dtype)
    out = x * sig

    def bwd(g):
        _accum(a, g * (sig * (1.0 + x * (1.0 - sig))))

    return _result(out, (a,), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape -> output with a trailing hidden axis."""
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.data.shape[0]:
        raise ValueError(
            f"token id out of range for table with {table.data.shape[0]} rows")
    out = table.data[ids]

    def bwd(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.ravel(),
                      g.reshape(-1, table.data.shape[1]))

    return _result(out, (table,), bwd)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} @ {bd.shape}")

    if bd.ndim == 2:
        # dominant case: stack of rows times a weight matrix -> one GEMM
        lead = ad.shape[:-1]
        a2 = ad.reshape(-1, ad.shape[-1])
        out = (a2 @ bd).reshape(*lead, bd.shape[1])

        def bwd(g):
            g2 = g.reshape(-1, bd.shape[1])
            if a.requires_grad:
                _accum(a, (g2 @ bd.T).reshape(ad.shape))
            if b.requires_grad:
                _accum(b, a2.T @ g2)

        return _result(out, (a, b), bwd)

    if ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul batch dimensions disagree: {ad.shape} @ {bd.shape}")
    out = np.matmul(ad, bd)

    def bwd(g):
        if a.requires_grad:
            _accum(a, np.matmul(g, bd.swapaxes(-1, -2)))
        if b.requires_grad:
            _accum(b, np.matmul(ad.swapaxes(-1, -2), g))

    return _result(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# normalization / softmax
# ---------------------------------------------------------------------------

def rmsnorm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y = x / sqrt(mean(x^2) + eps) * gain over the trailing axis."""
    if eps <= 0:
        raise ValueError("rmsnorm eps must be positive")
    xd = x.data
    d = xd.shape[-1]
    ms = np.mean(np.square(xd), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    out = xd * inv * gain.data

    def bwd(g):
        gg = g * gain.data
        if x.requires_grad:
            dot = np.sum(gg * xd, axis=-1, keepdims=True)
            _accum(x, inv * gg - xd * (inv ** 3) * (dot / d))
        if gain.requires_grad:
            contrib = g * xd * inv
            _accum(gain, contrib.reshape(-1, d).sum(axis=0))

    return _result(out, (x, gain), bwd)


# ---------------------------------------------------------------------------
# rotary rotation
# ---------------------------------------------------------------------------

def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate consecutive coordinate pairs of the trailing axis.

    x has shape (..., t, d) with d even; cos/sin have shape (t, d/2) and
    hold the per-(position, pair) rotation angles' cosine and sine.
    """
    xd = x.data
    if xd.shape[-1] % 2 != 0:
        raise ShapeError(f"rotary rotation needs an even trailing dim, got {xd.shape}")
    xe = xd[..., 0::2]
    xo = xd[..., 1::2]
    out = np.empty_like(xd)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos

    def bwd(g):
        if x.requires_grad:
            ge = g[..., 0::2]
            go = g[..., 1::2]
            dx = np.empty_like(xd)
            dx[..., 0::2] = ge * cos + go * sin
            dx[..., 1::2] = -ge * sin + go * cos
            _accum(x, dx)

    return _result(out, (x,), bwd)


# ---------------------------------------------------------------------------
# tiled causal attention (the hot path)
# ---------------------------------------------------------------------------

# Query rows per tile: 64 measured fastest or tied of 64/128/256 for forward and
# backward at t = 128...4096 (2-vCPU x86 host, OpenBLAS).
BLOCK = 64
# Additive mask for a diagonal tile: 0 on and below the diagonal, -inf above.
_FUTURE = np.triu(np.full((BLOCK, BLOCK), -np.inf, dtype=np.float32), k=1)


def _block_scores(q_blk: np.ndarray, k_t: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Scores of query rows [i0, i1) against keys [0, i1); the diagonal
    tile's future entries are -inf, and keys past it are never touched."""
    s = np.matmul(q_blk, k_t[:, :, :i1])
    s[:, :, i0:] += _FUTURE[:i1 - i0, :i1 - i0]
    return s


def causal_attention(q: Tensor, k: Tensor, v: Tensor, head_scale: float) -> Tensor:
    """softmax(Q K^T * head_scale + causal mask) V over (B, H, t, d) inputs.

    Computed in blocks of BLOCK query rows, all B*H heads at once: block
    [i0, i1) scores only keys [0, i1), so fully masked tiles are skipped,
    and only the diagonal tile carries the -inf mask. Each row takes an
    exact two-pass softmax over its whole key range. Block boundaries
    depend only on position, so row i's key range and reduction order are
    fixed by i and t, and its output is bitwise independent of positions
    j > i. The forward working set is O(B*H*BLOCK*t); the backward pass
    keeps only the output and the per-row log-sum-exp, O(B*H*t*d), and
    recomputes each block's probabilities from them.
    """
    if q.data.shape != k.data.shape or q.data.shape != v.data.shape:
        raise ShapeError(
            f"attention operands disagree: {q.data.shape}, {k.data.shape}, {v.data.shape}")
    B, H, t, d = q.data.shape
    n = B * H
    q2 = np.ascontiguousarray(q.data.reshape(n, t, d) * q.data.dtype.type(head_scale))
    k2 = np.ascontiguousarray(k.data.reshape(n, t, d))
    v2 = np.ascontiguousarray(v.data.reshape(n, t, d))
    k_t = k2.transpose(0, 2, 1)
    blocks = [(i0, min(i0 + BLOCK, t)) for i0 in range(0, t, BLOCK)]

    out = np.empty_like(q2)
    lse = np.empty((n, t), dtype=q2.dtype)
    for i0, i1 in blocks:
        e = _block_scores(q2[:, i0:i1], k_t, i0, i1)
        m = e.max(axis=-1, keepdims=True)
        e -= m
        np.exp(e, out=e)
        denom = e.sum(axis=-1, keepdims=True)
        o = out[:, i0:i1]
        np.matmul(e, v2[:, :i1], out=o)
        o /= denom
        lse[:, i0:i1] = (m + np.log(denom))[..., 0]

    def bwd(g):
        g2 = np.ascontiguousarray(g.reshape(n, t, d))
        delta = np.einsum("ntd,ntd->nt", g2, out)      # rowsum(dO * O)
        v_t = v2.transpose(0, 2, 1)
        dq = np.empty_like(q2)
        dk = np.zeros_like(k2)
        dv = np.zeros_like(v2)
        for i0, i1 in blocks:
            g_blk = g2[:, i0:i1]
            p = _block_scores(q2[:, i0:i1], k_t, i0, i1)
            p -= lse[:, i0:i1, None]
            np.exp(p, out=p)                                # P, recomputed
            dv[:, :i1] += np.matmul(p.transpose(0, 2, 1), g_blk)
            ds = np.matmul(g_blk, v_t[:, :, :i1])           # dP
            ds -= delta[:, i0:i1, None]
            ds *= p                                         # dS = P * (dP - D)
            np.matmul(ds, k2[:, :i1], out=dq[:, i0:i1])
            dk[:, :i1] += np.matmul(ds.transpose(0, 2, 1), q2[:, i0:i1])
        dq *= q2.dtype.type(head_scale)
        _accum(q, dq.reshape(B, H, t, d))
        _accum(k, dk.reshape(B, H, t, d))
        _accum(v, dv.reshape(B, H, t, d))

    return _result(out.reshape(B, H, t, d), (q, k, v), bwd)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray | None = None) -> Tensor:
    """Mean of -log softmax(logits)[target] over unmasked positions.

    logits: (..., V); targets: integer array of the leading shape; mask:
    boolean array of the leading shape (None means score everything).
    """
    ld = logits.data
    vocab = ld.shape[-1]
    lead = ld.shape[:-1]
    targets = np.asarray(targets)
    if targets.shape != lead:
        raise ShapeError(f"targets shape {targets.shape} != logits rows {lead}")
    if mask is None:
        mask = np.ones(lead, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    n_scored = int(mask.sum())
    if n_scored == 0:
        raise ValueError("cross_entropy: every position is masked")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= vocab:
        raise ValueError(f"target id out of range for vocab {vocab}")

    m = np.max(ld, axis=-1, keepdims=True)
    z = ld - m
    ez = np.exp(z)
    sumexp = np.sum(ez, axis=-1, keepdims=True)
    logp = z - np.log(sumexp)
    nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    loss_val = np.asarray(nll[mask].sum(dtype=np.float64) / n_scored, dtype=ld.dtype)

    def bwd(g):
        if logits.requires_grad:
            dl = ez / sumexp
            flat_idx = np.arange(targets.size) * vocab + targets.ravel()
            dl.reshape(-1)[flat_idx] -= 1.0
            dl *= (mask[..., None] * (float(g) / n_scored)).astype(ld.dtype)
            _accum(logits, dl)

    return _result(loss_val, (logits,), bwd)


def sigmoid_bce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of elementwise binary cross-entropy with logits (stable form)."""
    x = logits.data
    t = np.asarray(targets, dtype=x.dtype)
    if t.shape != x.shape:
        raise ShapeError(f"targets shape {t.shape} != logits shape {x.shape}")
    per = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    loss_val = np.asarray(per.sum(dtype=np.float64) / x.size, dtype=x.dtype)

    def bwd(g):
        if logits.requires_grad:
            z = np.exp(-np.abs(x))
            sig = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
            _accum(logits, (sig - t) * (float(g) / x.size))

    return _result(loss_val, (logits,), bwd)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Gradients accumulate additively across uses (and across calls; callers
    zero leaf grads between steps). Interior nodes are freed as the pass
    consumes them.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    # iterative postorder with cycle detection (gray = on the current path)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    order: list[Tensor] = []
    stack = [loss]
    while stack:
        node = stack[-1]
        c = color.get(id(node), WHITE)
        if c == WHITE:
            color[id(node)] = GRAY
            for p in node._parents:
                pc = color.get(id(p), WHITE)
                if pc == GRAY:
                    raise GenelmError("cycle detected in compute graph")
                if pc == WHITE:
                    stack.append(p)
        else:
            stack.pop()
            if c == GRAY:
                color[id(node)] = BLACK
                order.append(node)

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._bwd is None:
            continue
        if node.grad is not None:
            node._bwd(node.grad)
        node.grad = None
        node._parents = ()
        node._bwd = None
