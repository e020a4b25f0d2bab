"""Dense numeric kernels with reverse-mode gradient computation.

Everything the model touches is a `Tensor`: a numpy array plus an optional
node in a compute graph. Graphs are built per forward pass and freed during
`backward`, so memory stays bounded for long sequences. Causal attention is
tiled into blocks of BLOCK query rows for a group of heads and never forms
the t x t matrix: its forward working set is one tile per thread
(TILE_SCORES) and it keeps O(B*H*t*d) for the backward pass. Without a
graph, `rows` runs a row-wise block over chunks of ROW_CHUNK rows at most.
All arithmetic is 32-bit by default; building a graph from float64 arrays
yields a float64 graph (used by tests that want a high-precision oracle).

Inside `cores()`, OpenBLAS runs one thread and `over` splits work over a
thread pool instead, with bit-identical results: every row-wise op splits its
rows (each slice writes its part of a preallocated output), `rows` its
chunks, attention its heads, and training its batch (`trainer.train_stage`).
Long sequences and training halves (`cores_for`) use it, short ones keep
OpenBLAS's own threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

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


# ---------------------------------------------------------------------------
# both cores for long sequences
# ---------------------------------------------------------------------------

# Tokens from which `cores_for` enters `cores()`: a single sequence's length,
# or in training a half batch's. A single sequence splits only attention, so
# what pays is its share of the work, which grows with the length. On a
# 2-vCPU host single forwards of 1024 tokens and more ran faster inside the
# scope, while single sequences of 64-512 tokens scored slower there.
CORES_MIN_LEN = 1024

_SPLIT = 1     # slices per split: _CORES inside `cores()`, 1 outside it
_CORES = None  # BLAS threads counted at first use of `cores()`; 1 means off
_BLAS = None   # (get_num_threads, set_num_threads) of numpy's OpenBLAS
_POOL = None   # _CORES - 1 workers; the calling thread takes one slice
_SLICE = threading.local()  # .inside: this thread is running a slice of `over`


def _openblas():
    """ctypes get/set of the thread count of the OpenBLAS that numpy
    loaded, found through the process's own mappings; None when there is
    none (another BLAS, or no /proc)."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def cores():
    """Run the block's attention on a pool of threads, one per BLAS thread
    counted at first use, while OpenBLAS runs one thread; the count is
    restored on exit. Does nothing when nested, when numpy's BLAS is not a
    reachable OpenBLAS, or when it already runs one thread
    (`OPENBLAS_NUM_THREADS=1` keeps the serial path)."""
    global _SPLIT, _CORES, _BLAS, _POOL
    if _CORES is None:
        _BLAS = _openblas()
        _CORES = _BLAS[0]() if _BLAS else 1
        if _CORES > 1:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_CORES - 1, thread_name_prefix="genelm-core")
    threads = _BLAS[0]() if _CORES > 1 else 1
    if _SPLIT > 1 or threads < 2:  # nested, or BLAS already serial
        yield
        return
    _BLAS[1](1)
    _SPLIT = _CORES
    try:
        yield
    finally:
        _SPLIT = 1
        _BLAS[1](threads)


def cores_for(length: int):
    """`cores()` when one thread's share, a sequence or a training half,
    has at least CORES_MIN_LEN tokens, else a scope that does nothing."""
    return cores() if length >= CORES_MIN_LEN else contextlib.nullcontext()


def _splitting() -> bool:
    """Inside `cores()` and not inside a slice of `over`."""
    return _SPLIT > 1 and not getattr(_SLICE, "inside", False)


def over(n: int, fn: Callable[[int, int], None]) -> None:
    """fn(lo, hi) over contiguous slices covering range(n): inside `cores()`
    one slice per pool thread and one on the calling thread, else the whole
    range at once. A call made from inside a slice runs serially, as a
    nested `cores()` does nothing, so it never waits on the pool it runs in."""
    k = min(_SPLIT, n)
    if k <= 1 or not _splitting():
        fn(0, n)
        return

    def run(lo, hi):
        _SLICE.inside = True
        try:
            fn(lo, hi)
        finally:
            _SLICE.inside = False

    futures = [_POOL.submit(run, n * i // k, n * (i + 1) // k) for i in range(1, k)]
    try:
        run(0, n // k)
    finally:
        for f in futures:  # every worker finishes before anything unwinds
            f.exception()
    for f in futures:
        f.result()


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
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: Sequence[Tensor], bwd: Callable) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=tuple(parents), bwd=bwd)
    return Tensor(data)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad. The first gradient becomes the buffer itself: every
    backward rule passes an array that nothing else holds (`add` copies the
    one it would share)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
    else:
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


def _split(fn: Callable, *arrays: np.ndarray, axis: int | None = None) -> None:
    """fn(*arrays) at once, or inside `cores()` once per slice (`over`) on
    that slice of every array: slices of `axis`, counted from the end as in
    broadcasting, or by default of the rows, every axis but the last
    flattened, for which the outputs among the arrays must be C-contiguous."""
    if not _splitting():
        fn(*arrays)
        return
    if axis is None:
        arrays, axis = [a.reshape(-1, a.shape[-1]) for a in arrays], -2
    tail = (slice(None),) * (-axis - 1)
    over(arrays[0].shape[axis],
         lambda lo, hi: fn(*(a[(..., slice(lo, hi)) + tail] for a in arrays)))


def _whole(fn: Callable, *arrays: np.ndarray) -> None:
    fn(*arrays)


# Rows per chunk, at most, of a row-wise block that `rows` runs without a
# graph: its intermediates (the FFN's (rows, ffn_dim) arrays) then never span
# the whole input. Chunks of ROW_CHUNK / 2 rows or more keep every GEMM on
# the kernel of the whole one (GEMM_SPLIT_MIN), so the rows come out bitwise
# the same.
ROW_CHUNK = 1024


def rows(fn: Callable[[Tensor], Tensor], x: Tensor) -> Tensor:
    """fn(x) for a fn that maps each row of x (..., k) to a row of the same
    width and dtype on its own (a residual block). When a graph is built,
    or x has at most ROW_CHUNK rows, fn takes x whole; else fn runs on
    ceil(rows / ROW_CHUNK) equal chunks of the rows, every axis but the
    last flattened, each written into one output; inside `cores()` whole
    chunks run on each pool thread."""
    x2 = x.data.reshape(-1, x.data.shape[-1])
    n = len(x2)
    k = -(-n // ROW_CHUNK)
    if _GRAD_ENABLED or k < 2:
        return fn(x)
    out = np.empty_like(x2)

    def chunks(c0, c1):
        for c in range(c0, c1):
            lo, hi = n * c // k, n * (c + 1) // k
            out[lo:hi] = fn(Tensor(x2[lo:hi])).data

    over(k, chunks)
    return Tensor(out.reshape(x.data.shape))


def _ufunc(f: np.ufunc, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """f(x, y), split over rows inside `cores()` when x and y have one shape."""
    if x.shape != y.shape or x.ndim == 0 or not _splitting():
        return f(x, y)
    out = np.empty(x.shape, np.result_type(x, y))
    _split(lambda xs, ys, outs: f(xs, ys, out=outs), x, y, out)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = _ufunc(np.add, a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            if a.grad is not None and np.shares_memory(a.grad, gb):
                gb = gb.copy()  # a kept g as its gradient
            _accum(b, gb)

    return _result(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _ufunc(np.multiply, a.data, b.data)

    def bwd(g):
        for t, other in ((a, b), (b, a)):
            if t.requires_grad:
                _accum(t, _unbroadcast(_ufunc(np.multiply, g, other.data), t.data.shape))

    return _result(out, (a, b), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _result(out, (a,), bwd)


def _contiguous(view: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of view, split over its second axis (a head
    transpose's heads one way, its positions the other)."""
    if view.ndim < 2:
        return np.ascontiguousarray(view)
    out = np.empty(view.shape, view.dtype)
    _split(np.copyto, out, view, axis=1 - view.ndim)
    return out


def transpose(a: Tensor, axes: tuple) -> Tensor:
    out = _contiguous(a.data.transpose(axes))
    inverse = np.argsort(axes)

    def bwd(g):
        _accum(a, _contiguous(g.transpose(inverse)))

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


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid of x in x's dtype (into `out` if given), without
    overflow for any input."""
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    # sigmoid(x) is 1 / (1 + z) for x >= 0 and z / (1 + z) below; z <= 1 for
    # x >= 0, so the max picks the numerator, and a NaN propagates
    sig = np.maximum(z, x >= 0, out=out, dtype=x.dtype)
    z += 1.0
    sig /= z
    return sig


def silu(a: Tensor) -> Tensor:
    x = a.data
    sig = np.empty(x.shape, x.dtype)
    _split(lambda xs, sigs: _sigmoid(xs, out=sigs), x, sig)
    # made after the sigmoid's temporaries are freed: allocating it before
    # them took about 20 % more page faults per scored 256-token sequence
    out = _ufunc(np.multiply, x, sig)

    def bwd(g):
        d = np.empty(x.shape, x.dtype)

        def backward(ds, sigs, xs, gs):
            np.subtract(1.0, sigs, out=ds)
            ds *= xs
            ds += 1.0
            ds *= sigs
            ds *= gs

        _split(backward, d, sig, x, g)
        _accum(a, d)

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

# Weight dims from which `matmul` splits: with one OpenBLAS thread, 2, 3 or 4
# row slices of the forward and dX GEMMs and of dW's own rows matched the
# whole GEMM bitwise for weights 64x64 up to 704x256 at 1024-4096 rows, while
# the 128->6 and 256->6 LM heads and dW of 16- to 32-wide weights did not.
GEMM_SPLIT_MIN = 64


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, n): a stack of rows times a weight matrix. Inside
    `cores()` a weight of at least GEMM_SPLIT_MIN in both dims splits the
    rows of each GEMM, dW over its own rows, so that every element still
    reduces over all rows; a smaller one stays one GEMM."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul needs (..., k) @ (k, n), got {ad.shape} @ {bd.shape}")
    split = _split if min(bd.shape) >= GEMM_SPLIT_MIN else _whole
    a2 = ad.reshape(-1, ad.shape[-1])  # one GEMM over the stack of rows
    out = np.empty((len(a2), bd.shape[1]), np.result_type(ad, bd))
    split(lambda rows, o: np.matmul(rows, bd, out=o), a2, out)

    def bwd(g):
        g2 = g.reshape(-1, bd.shape[1])
        if a.requires_grad:
            da = np.empty(a2.shape, np.result_type(g, bd))
            split(lambda rows, o: np.matmul(rows, bd.T, out=o), g2, da)
            _accum(a, da.reshape(ad.shape))
        if b.requires_grad:
            db = np.empty(bd.shape, np.result_type(ad, g))
            split(lambda cols, o: np.matmul(cols, g2, out=o), a2.T, db)
            _accum(b, db)

    return _result(out.reshape(*ad.shape[:-1], bd.shape[1]), (a, b), bwd)


# ---------------------------------------------------------------------------
# normalization / softmax
# ---------------------------------------------------------------------------

def rmsnorm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y = x / sqrt(mean(x^2) + eps) * gain over the trailing axis."""
    if eps <= 0:
        raise ValueError("rmsnorm eps must be positive")
    xd, gd = x.data, gain.data
    d = xd.shape[-1]
    inv = np.empty((*xd.shape[:-1], 1), xd.dtype)
    out = np.empty(xd.shape, np.result_type(xd, gd))

    def forward(xs, invs, outs):
        ms = np.mean(np.square(xs), axis=-1, keepdims=True)
        np.divide(1.0, np.sqrt(ms + eps), out=invs)
        np.multiply(xs, invs, out=outs)
        outs *= gd

    _split(forward, xd, inv, out)

    def bwd(g):
        if x.requires_grad:
            dx = np.empty(xd.shape, np.result_type(g, xd, gd))

            def backward(gs, xs, invs, dxs):
                gg = gs * gd
                dot = np.sum(gg * xs, axis=-1, keepdims=True)
                np.subtract(invs * gg, xs * (invs ** 3) * (dot / d), out=dxs)

            _split(backward, g, xd, inv, dx)
            _accum(x, dx)
        if gain.requires_grad:
            # rows of the product split, its one column sum whole
            contrib = np.empty(xd.shape, np.result_type(g, xd))
            _split(lambda gs, xs, invs, cs: np.multiply(gs * xs, invs, out=cs),
                   g, xd, inv, contrib)
            _accum(gain, contrib.reshape(-1, d).sum(axis=0))

    return _result(out, (x, gain), bwd)


# ---------------------------------------------------------------------------
# rotary rotation
# ---------------------------------------------------------------------------

def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """x rotated by the angles, split over positions (axis -2)."""
    out = np.empty_like(x)

    def rotate(xs, c, s, outs):
        xe, xo = xs[..., 0::2], xs[..., 1::2]
        outs[..., 0::2] = xe * c - xo * s
        outs[..., 1::2] = xe * s + xo * c

    _split(rotate, x, cos, sin, out, axis=-2)
    return out


def rope_rotate(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate consecutive coordinate pairs of the trailing axis.

    x has shape (..., t, d) with d even; cos/sin have shape (t, d/2) and
    hold the per-(position, pair) rotation angles' cosine and sine.
    """
    xd = x.data
    if xd.shape[-1] % 2 != 0:
        raise ShapeError(f"rotary rotation needs an even trailing dim, got {xd.shape}")

    def bwd(g):
        # the inverse rotation; negating sin is exact, so this is bitwise the
        # transposed rotation written out
        if x.requires_grad:
            _accum(x, _rotate(g, cos, -sin))

    return _result(_rotate(xd, cos, sin), (x,), bwd)


# ---------------------------------------------------------------------------
# tiled causal attention (the hot path)
# ---------------------------------------------------------------------------

# Query rows per tile: 64 measured fastest or tied of 64/128/256 for forward and
# backward at t = 128...4096 (2-vCPU x86 host, OpenBLAS).
BLOCK = 64
# Scores per tile: a tile holds BLOCK query rows against up to t keys for a
# group of max(1, TILE_SCORES // (BLOCK * t)) heads, so it takes at most 1 MiB
# of float32 up to t = 4096, and one head beyond, whatever the batch and head
# count.
TILE_SCORES = 1 << 18
# Additive mask for a diagonal tile: 0 on and below the diagonal, -inf above.
_FUTURE = np.triu(np.full((BLOCK, BLOCK), -np.inf, dtype=np.float32), k=1)


def _block_scores(q_blk: np.ndarray, k_t: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Scores of query rows [i0, i1) against keys [0, i1); the diagonal
    tile's future entries are -inf, and keys past it are never touched."""
    s = np.matmul(q_blk, k_t[:, :, :i1])
    s[:, :, i0:] += _FUTURE[:i1 - i0, :i1 - i0]
    return s


def _over_heads(n: int, t: int, fn: Callable[[int, int], None]) -> None:
    """fn(h0, h1) over groups of the n heads, the groups sized from t alone
    (TILE_SCORES), inside each slice of `over`."""
    size = max(1, TILE_SCORES // (BLOCK * t))

    def groups(h0, h1):
        for g in range(h0, h1, size):
            fn(g, min(g + size, h1))

    over(n, groups)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, head_scale: float) -> Tensor:
    """softmax(Q K^T * head_scale + causal mask) V over (B, H, t, d) inputs.

    Computed in tiles of BLOCK query rows for a group of heads (one
    contiguous slice of the B*H heads per pool thread inside `cores()`,
    in groups sized by TILE_SCORES): block [i0, i1) scores only keys
    [0, i1), so fully masked tiles are skipped, and only the diagonal tile
    carries the -inf mask. A tile's query rows are scaled by head_scale as
    it is formed. Each row takes an exact two-pass softmax over its whole
    key range. Block boundaries depend only on position, so row i's key
    range and reduction order are fixed by i and t, and its output is
    bitwise independent of positions j > i. The forward working set is one
    tile per thread; the backward pass keeps only the output and the
    per-row log-sum-exp, O(B*H*t*d), and recomputes each block's
    probabilities from them.
    """
    if q.data.shape != k.data.shape or q.data.shape != v.data.shape:
        raise ShapeError(
            f"attention operands disagree: {q.data.shape}, {k.data.shape}, {v.data.shape}")
    B, H, t, d = q.data.shape
    n = B * H
    scale = q.data.dtype.type(head_scale)
    q2 = np.ascontiguousarray(q.data.reshape(n, t, d))
    k2 = np.ascontiguousarray(k.data.reshape(n, t, d))
    v2 = np.ascontiguousarray(v.data.reshape(n, t, d))
    k_t = k2.transpose(0, 2, 1)
    blocks = [(i0, min(i0 + BLOCK, t)) for i0 in range(0, t, BLOCK)]

    out = np.empty_like(q2)
    lse = np.empty((n, t), dtype=q2.dtype)

    def forward(h0, h1):
        for i0, i1 in blocks:
            e = _block_scores(q2[h0:h1, i0:i1] * scale, k_t[h0:h1], i0, i1)
            m = e.max(axis=-1, keepdims=True)
            e -= m
            np.exp(e, out=e)
            denom = e.sum(axis=-1, keepdims=True)
            o = out[h0:h1, i0:i1]
            np.matmul(e, v2[h0:h1, :i1], out=o)
            o /= denom
            lse[h0:h1, i0:i1] = (m + np.log(denom))[..., 0]

    _over_heads(n, t, forward)

    def bwd(g):
        g2 = np.ascontiguousarray(g.reshape(n, t, d))
        dq = np.empty_like(q2)
        dk = np.zeros_like(k2)
        dv = np.zeros_like(v2)

        def backward_heads(h0, h1):
            delta = np.einsum("ntd,ntd->nt", g2[h0:h1], out[h0:h1])  # rowsum(dO * O)
            kh, v_th = k2[h0:h1], v2[h0:h1].transpose(0, 2, 1)
            for i0, i1 in blocks:
                g_blk = g2[h0:h1, i0:i1]
                q_blk = q2[h0:h1, i0:i1] * scale
                p = _block_scores(q_blk, k_t[h0:h1], i0, i1)
                p -= lse[h0:h1, i0:i1, None]
                np.exp(p, out=p)                                # P, recomputed
                dv[h0:h1, :i1] += np.matmul(p.transpose(0, 2, 1), g_blk)
                ds = np.matmul(g_blk, v_th[:, :, :i1])          # dP
                ds -= delta[:, i0:i1, None]
                ds *= p                                         # dS = P * (dP - D)
                np.matmul(ds, kh[:, :i1], out=dq[h0:h1, i0:i1])
                dk[h0:h1, :i1] += np.matmul(ds.transpose(0, 2, 1), q_blk)

        _over_heads(n, t, backward_heads)
        dq *= scale
        _accum(q, dq.reshape(B, H, t, d))
        _accum(k, dk.reshape(B, H, t, d))
        _accum(v, dv.reshape(B, H, t, d))

    return _result(out.reshape(B, H, t, d), (q, k, v), bwd)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray | None = None, *, total: int | None = None) -> Tensor:
    """Mean of -log softmax(logits)[target] over unmasked positions.

    logits: (..., V); targets: integer array of the leading shape; mask:
    boolean array of the leading shape (None means score everything). With
    `total`, the float64 sum is divided by `total` instead of this call's
    own count: the share of a batch of `total` scored positions that these
    rows carry.
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
    if total is None:
        total = n_scored
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= vocab:
        raise ValueError(f"target id out of range for vocab {vocab}")

    m = np.max(ld, axis=-1, keepdims=True)
    z = ld - m
    ez = np.exp(z)
    sumexp = np.sum(ez, axis=-1, keepdims=True)
    logp = z - np.log(sumexp)
    nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    loss_val = np.asarray(nll[mask].sum(dtype=np.float64) / total, dtype=ld.dtype)

    def bwd(g):
        if logits.requires_grad:
            dl = ez / sumexp
            flat_idx = np.arange(targets.size) * vocab + targets.ravel()
            dl.reshape(-1)[flat_idx] -= 1.0
            dl *= (mask[..., None] * (float(g) / total)).astype(ld.dtype)
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
            _accum(logits, (_sigmoid(x) - t) * (float(g) / x.size))

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

    # iterative postorder; a node's parents exist before it, so the graph
    # has no cycle
    seen: set[int] = set()
    order: list[Tensor] = []
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._bwd is None:
            continue
        if node.grad is not None:
            node._bwd(node.grad)
        node.grad = None
        node._parents = ()
        node._bwd = None
