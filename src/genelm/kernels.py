"""Dense numeric kernels with reverse-mode gradient computation.

Everything the model touches is a `Tensor`: a numpy array plus its `Node`
in a compute graph built per forward pass, unless the thread is inside
`no_grad()`. Edges link nodes, not arrays, so a graph holds exactly the
arrays its backward rules capture: an op's output that no rule reads is
freed as soon as the program drops it, and `backward` releases each rule,
with what it captured, once it has run. The SwiGLU gate (`swiglu`) keeps
its two inputs and recomputes its sigmoid in the backward. `recompute`
runs a segment of ops without a graph and keeps only its inputs; the
backward reruns the segment with a graph, so what its rules capture is
held only while that rerun lasts (the model's blocks at long contexts).
Causal attention is tiled into blocks of BLOCK query rows for a group of
heads and never forms the t x t matrix: its forward working set is one
tile per thread (TILE_SCORES) and it keeps O(B*H*t*d) for the backward
pass. Without a graph, `rows` runs a row-wise block over chunks of
ROW_CHUNK rows at most. All arithmetic is 32-bit by default; building a
graph from float64 arrays yields a float64 graph (used by tests that want
a high-precision oracle).

Inside `cores()`, OpenBLAS runs one thread and `over` splits work over a
pool of one thread per CPU the process may use, with bit-identical results:
every row-wise op splits its rows (each slice writes its part of a
preallocated output), `rows` its chunks, attention its heads, and training
its batch (`trainer.train_stage`). In or out of the scope, `over`'s run bound
cuts each slice into runs counted from its start: attention's head groups,
the SwiGLU gate's row blocks and `rows`' chunks. Long sequences and training
halves (`cores_for`) use the scope, short ones OpenBLAS's own threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

# per thread: `graph` is False inside `no_grad()`; `over` hands the caller's
# mode to the slices it runs on pool threads
_MODE = threading.local()


def _graph_on() -> bool:
    return getattr(_MODE, "graph", True)


@contextlib.contextmanager
def _graph_mode(on: bool):
    prev = _graph_on()
    _MODE.graph = on
    try:
        yield
    finally:
        _MODE.graph = prev


def no_grad():
    """Disable graph construction on this thread inside the block
    (evaluation fast path), and in the slices `over` runs from it."""
    return _graph_mode(False)


# ---------------------------------------------------------------------------
# every CPU for long sequences
# ---------------------------------------------------------------------------

# Tokens from which `cores_for` enters `cores()`: a single sequence's length,
# or in training a half batch's. A single sequence splits only attention, so
# what pays is its share of the work, which grows with the length. On a
# 2-vCPU host single forwards of 1024 tokens and more ran faster inside the
# scope, while single sequences of 64-512 tokens scored slower there.
CORES_MIN_LEN = 1024

_SPLIT = 1     # slices per split: _CORES inside `cores()`, 0 in one of its slices, else 1
_CORES = None  # CPUs counted at first use of `cores()`; 1 means off
_BLAS = None   # (get_num_threads, set_num_threads) of numpy's OpenBLAS
_POOL = None   # _CORES - 1 workers; the calling thread takes one slice


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
    """Run the block's `over` calls, so every row-wise op, on a pool of
    threads, one per CPU the process may use (`os.sched_getaffinity`, counted
    at first use), while OpenBLAS runs one thread; its count is restored on
    exit. Does nothing when nested, when there is one CPU, or when numpy's
    BLAS is not a reachable OpenBLAS."""
    global _SPLIT, _CORES, _BLAS, _POOL
    if _CORES is None:
        _BLAS = _openblas()
        _CORES = len(os.sched_getaffinity(0)) if _BLAS else 1
        if _CORES > 1:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_CORES - 1, thread_name_prefix="genelm-core")
    if _SPLIT != 1 or _CORES < 2:  # nested, or one CPU
        yield
        return
    threads = _BLAS[0]()
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


def over(n: int, fn: Callable[[int, int], None], most: int | None = None) -> None:
    """fn(lo, hi) over contiguous runs covering range(n): inside `cores()`
    one slice per pool thread and one on the calling thread, else the whole
    range as one slice; each slice whole, or in runs of at most `most`
    counted from its start. Pool threads run their slices in the caller's
    graph mode. While the slices run, _SPLIT is 0, so a call made from
    inside a slice runs serially, as a nested `cores()` does nothing, and
    never waits on the pool it runs in."""
    global _SPLIT

    def runs(lo, hi):
        if most is None:
            fn(lo, hi)
            return
        for r in range(lo, hi, most):
            fn(r, min(r + most, hi))

    k = min(_SPLIT, n)
    if k <= 1:
        runs(0, n)
        return
    graph = _graph_on()

    def pooled(lo, hi):
        with _graph_mode(graph):
            runs(lo, hi)

    prev, _SPLIT = _SPLIT, 0
    futures = [_POOL.submit(pooled, n * i // k, n * (i + 1) // k) for i in range(1, k)]
    try:
        runs(0, n // k)
    finally:
        for f in futures:  # every worker finishes before anything unwinds
            f.exception()
        _SPLIT = prev
    for f in futures:
        f.result()


class Node:
    """What `backward` needs of a tensor, without its value: the gradient,
    whether one is wanted, the nodes the tensor was computed from, the rule
    that sends its gradient to them, and the dtype the gradient is kept in.
    Edges point at nodes, so they keep no array alive (module docstring)."""
    __slots__ = ("grad", "requires_grad", "_parents", "_bwd", "dtype")

    def __init__(self, dtype: np.dtype, requires_grad: bool = False,
                 parents: tuple = (), bwd: Callable | None = None):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._bwd = bwd
        self.dtype = dtype


def _on_node(name: str) -> property:
    return property(lambda t: getattr(t.node, name),
                    lambda t, value: setattr(t.node, name, value))


class Tensor:
    """A numpy array and its graph `Node`; grad, requires_grad, _parents
    and _bwd read and write the node's."""
    __slots__ = ("data", "node")

    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")
    _parents = _on_node("_parents")
    _bwd = _on_node("_bwd")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 node: Node | None = None):
        self.data = data
        self.node = Node(data.dtype, requires_grad) if node is None else node

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: Sequence[Node], bwd: Callable) -> Tensor:
    """data as a Tensor, with a node linked to the parents' nodes when a
    graph is built. bwd must capture nodes, shapes and the arrays it reads,
    never a Tensor, which would keep that Tensor's data alive."""
    if _graph_on() and any(p.requires_grad for p in parents):
        return Tensor(data, node=Node(data.dtype, True, tuple(parents), bwd))
    return Tensor(data)


def _accum(node: Node, g: np.ndarray) -> None:
    """Add g into node.grad. The first gradient becomes the buffer itself:
    every backward rule passes an array that nothing else holds (`add`
    copies the one it would share)."""
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = g.astype(node.dtype, copy=False)
    else:
        node.grad += g


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
    if _SPLIT < 2:
        fn(*arrays)
        return
    if axis is None:
        arrays, axis = [a.reshape(-1, a.shape[-1]) for a in arrays], -2
    tail = (slice(None),) * (-axis - 1)
    over(arrays[0].shape[axis],
         lambda lo, hi: fn(*(a[(..., slice(lo, hi)) + tail] for a in arrays)))


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
    if _graph_on() or k < 2:
        return fn(x)
    out = np.empty_like(x2)

    def chunk(c, _):
        lo, hi = n * c // k, n * (c + 1) // k
        out[lo:hi] = fn(Tensor(x2[lo:hi])).data

    over(k, chunk, 1)
    return Tensor(out.reshape(x.data.shape))


def _ufunc(f: np.ufunc, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """f(x, y), split over rows inside `cores()` when x and y have one shape."""
    if x.shape != y.shape or x.ndim == 0 or _SPLIT < 2:
        return f(x, y)
    out = np.empty(x.shape, np.result_type(x, y))
    _split(lambda xs, ys, outs: f(xs, ys, out=outs), x, y, out)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = _ufunc(np.add, a.data, b.data)
    na, nb, sa, sb = a.node, b.node, a.shape, b.shape

    def bwd(g):
        if na.requires_grad:
            _accum(na, _unbroadcast(g, sa))
        if nb.requires_grad:
            gb = _unbroadcast(g, sb)
            if na.grad is not None and np.shares_memory(na.grad, gb):
                gb = gb.copy()  # a kept g as its gradient
            _accum(nb, gb)

    return _result(out, (na, nb), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = _ufunc(np.multiply, ad, bd)
    na, nb = a.node, b.node

    def bwd(g):
        for n, other, shape in ((na, bd, ad.shape), (nb, ad, bd.shape)):
            if n.requires_grad:
                _accum(n, _unbroadcast(_ufunc(np.multiply, g, other), shape))

    return _result(out, (na, nb), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = a.data.reshape(shape)
    na, sa = a.node, a.shape

    def bwd(g):
        _accum(na, g.reshape(sa))

    return _result(out, (na,), bwd)


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
    na = a.node

    def bwd(g):
        _accum(na, _contiguous(g.transpose(inverse)))

    return _result(out, (na,), bwd)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    n = a.data.shape[axis]
    out = a.data.sum(axis=axis)
    na = a.node

    def bwd(g):
        _accum(na, np.repeat(np.expand_dims(g, axis), n, axis=axis))

    return _result(out, (na,), bwd)


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


# Elements per block of `swiglu`'s rows: the sigmoid's temporaries span one
# block, not the whole gate, so a forward without a graph holds little more
# than a, b and the output (at 256 rows of 352 and up, no more than a
# separate SiLU op and product held), and the passes over a block stay in
# cache (4096 x 352 float32 on a 2-vCPU x86 host: forward 4.5 -> 3.6 ms,
# backward 8.5 -> 5.8 ms against whole arrays).
GATE_BLOCK = 1 << 14


def swiglu(a: Tensor, b: Tensor) -> Tensor:
    """silu(a) * b = a * sigmoid(a) * b, the gate of a SwiGLU feed-forward
    block; a and b share shape and dtype. The backward keeps only a and b
    and recomputes the sigmoid from a, bitwise as the forward made it."""
    x, y = a.data, b.data
    if x.shape != y.shape:
        raise ShapeError(f"swiglu operands disagree: {x.shape}, {y.shape}")
    x2, y2 = x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])
    out = np.empty(x2.shape, x.dtype)
    block = max(1, GATE_BLOCK // x2.shape[1])  # rows per block

    def forward(lo, hi):
        # one buffer: the sigmoid, then silu = a * sigmoid (the product
        # commutes bitwise), then the gate product
        xs, outs = x2[lo:hi], out[lo:hi]
        _sigmoid(xs, out=outs)
        outs *= xs
        outs *= y2[lo:hi]

    over(len(x2), forward, block)
    na, nb = a.node, b.node

    def bwd(g):
        g2 = g.reshape(x2.shape)
        da, db = np.empty(x2.shape, x.dtype), np.empty(x2.shape, x.dtype)

        def backward(lo, hi):
            xs, ys, gs, das, dbs = (z[lo:hi] for z in (x2, y2, g2, da, db))
            sig = _sigmoid(xs)
            np.multiply(gs, xs * sig, out=dbs)  # g * silu(a)
            # d silu / da = sig * (1 + a * (1 - sig)), times g * b
            np.subtract(1.0, sig, out=das)
            das *= xs
            das += 1.0
            das *= sig
            das *= gs * ys

        over(len(x2), backward, block)
        _accum(na, da.reshape(x.shape))
        _accum(nb, db.reshape(x.shape))

    return _result(out.reshape(x.shape), (na, nb), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ids of any shape -> output with a trailing hidden axis."""
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.data.shape[0]:
        raise ValueError(
            f"token id out of range for table with {table.data.shape[0]} rows")
    out = table.data[ids]
    nt, shape = table.node, table.shape

    def bwd(g):
        if nt.requires_grad:
            if nt.grad is None:
                nt.grad = np.zeros(shape, nt.dtype)
            np.add.at(nt.grad, ids.ravel(), g.reshape(-1, shape[1]))

    return _result(out, (nt,), bwd)


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

    def gemm(x, y, o):  # x @ y into o, split over rows when the weight is wide
        if min(bd.shape) < GEMM_SPLIT_MIN:
            np.matmul(x, y, out=o)
        else:
            _split(lambda xs, os: np.matmul(xs, y, out=os), x, o)

    a2 = ad.reshape(-1, ad.shape[-1])  # one GEMM over the stack of rows
    out = np.empty((len(a2), bd.shape[1]), np.result_type(ad, bd))
    gemm(a2, bd, out)
    na, nb, sa = a.node, b.node, ad.shape

    def bwd(g):
        g2 = g.reshape(-1, bd.shape[1])
        if na.requires_grad:
            da = np.empty(a2.shape, np.result_type(g, bd))
            gemm(g2, bd.T, da)
            _accum(na, da.reshape(sa))
        if nb.requires_grad:
            db = np.empty(bd.shape, np.result_type(a2, g))
            gemm(a2.T, g2, db)  # dW over its own rows
            _accum(nb, db)

    return _result(out.reshape(*sa[:-1], bd.shape[1]), (na, nb), bwd)


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
    nx, ng = x.node, gain.node

    def bwd(g):
        if nx.requires_grad:
            dx = np.empty(xd.shape, np.result_type(g, xd, gd))

            def backward(gs, xs, invs, dxs):
                gg = gs * gd
                dot = np.sum(gg * xs, axis=-1, keepdims=True)
                np.subtract(invs * gg, xs * (invs ** 3) * (dot / d), out=dxs)

            _split(backward, g, xd, inv, dx)
            _accum(nx, dx)
        if ng.requires_grad:
            # rows of the product split, its one column sum whole
            contrib = np.empty(xd.shape, np.result_type(g, xd))
            _split(lambda gs, xs, invs, cs: np.multiply(gs * xs, invs, out=cs),
                   g, xd, inv, contrib)
            _accum(ng, contrib.reshape(-1, d).sum(axis=0))

    return _result(out, (nx, ng), bwd)


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
    if x.shape[-1] % 2 != 0:
        raise ShapeError(f"rotary rotation needs an even trailing dim, got {x.shape}")
    nx = x.node

    def bwd(g):
        # the inverse rotation; negating sin is exact, so this is bitwise the
        # transposed rotation written out
        _accum(nx, _rotate(g, cos, -sin))

    return _result(_rotate(x.data, cos, sin), (nx,), bwd)


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
    heads_per_tile = max(1, TILE_SCORES // (BLOCK * t))

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

    over(n, forward, heads_per_tile)
    nq, nk, nv = q.node, k.node, v.node

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

        over(n, backward_heads, heads_per_tile)
        dq *= scale
        _accum(nq, dq.reshape(B, H, t, d))
        _accum(nk, dk.reshape(B, H, t, d))
        _accum(nv, dv.reshape(B, H, t, d))

    return _result(out.reshape(B, H, t, d), (nq, nk, nv), bwd)


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
    nl, dtype = logits.node, ld.dtype

    def bwd(g):
        dl = ez / sumexp
        flat_idx = np.arange(targets.size) * vocab + targets.ravel()
        dl.reshape(-1)[flat_idx] -= 1.0
        dl *= (mask[..., None] * (float(g) / total)).astype(dtype)
        _accum(nl, dl)

    return _result(loss_val, (nl,), bwd)


def sigmoid_bce(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean of elementwise binary cross-entropy with logits (stable form)."""
    x = logits.data
    t = np.asarray(targets, dtype=x.dtype)
    if t.shape != x.shape:
        raise ShapeError(f"targets shape {t.shape} != logits shape {x.shape}")
    per = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    loss_val = np.asarray(per.sum(dtype=np.float64) / x.size, dtype=x.dtype)
    nl = logits.node

    def bwd(g):
        _accum(nl, (_sigmoid(x) - t) * (float(g) / x.size))

    return _result(loss_val, (nl,), bwd)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def recompute(fn: Callable[..., tuple], *xs: Tensor) -> tuple:
    """fn(*xs), a tuple of Tensors, with a graph that keeps only the xs.

    fn runs without a graph. Its outputs hang off one node whose rule, once
    every output's gradient has arrived, reruns fn on the same arrays with
    a graph and propagates those gradients through it in one pass, to the
    xs and to the parameters fn reads. fn must compute the same arrays on
    both runs, and must not close over activations, which the graph would
    then keep. Without a graph, just fn(*xs).
    """
    if not _graph_on():
        return fn(*xs)
    with no_grad():
        outs = fn(*xs)
    arrays, nodes = [x.data for x in xs], tuple(x.node for x in xs)
    grads: list = [None] * len(outs)

    def rerun(_):
        leaves = [Tensor(a, n.requires_grad) for a, n in zip(arrays, nodes)]
        with _graph_mode(True):
            roots = [out.node for out in fn(*leaves)]  # no rule reads their arrays
        for root, g in zip(roots, grads):
            root.grad = g
        _propagate(roots)
        for leaf, n in zip(leaves, nodes):
            if leaf.grad is not None:
                _accum(n, leaf.grad)

    join = Node(outs[0].dtype, True, nodes, rerun)

    def arrival(i):
        def bwd(g):
            grads[i] = g
            join.grad = grads  # set, so the pass runs `rerun` after every output
        return bwd

    return tuple(Tensor(out.data, node=Node(out.dtype, True, (join,), arrival(i)))
                 for i, out in enumerate(outs))


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from `loss`.

    Gradients accumulate additively across uses (and across calls; callers
    zero leaf grads between steps). Interior nodes are freed as the pass
    consumes them.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    loss.node.grad = np.ones_like(loss.data)
    _propagate([loss.node])


def _propagate(roots: Sequence[Node]) -> None:
    """Run the rule of every node reachable from `roots`, whose gradients
    are set, once all its consumers' rules have run, then free it. The
    roots are taken as one node's parents would be, the first root's rule
    first, so a rerun adds a tensor's gradients up in the order the whole
    graph does (Q, K, then V into the normed input)."""
    # iterative postorder; a node's parents exist before it, so the graph
    # has no cycle
    seen: set[int] = set()
    order: list[Node] = []
    stack = [(root, False) for root in roots]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)

    for node in reversed(order):
        if node._bwd is None:
            continue
        if node.grad is not None:
            node._bwd(node.grad)
        node.grad = None
        node._parents = ()
        node._bwd = None
