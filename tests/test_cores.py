"""`kernels.cores()`: long inputs split over a thread pool while OpenBLAS
runs one thread, with results bitwise equal to the serial path."""

import contextlib
import dataclasses
import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from genelm import kernels as K
from genelm import trainer as TR
from genelm.model import LanguageModel, ModelConfig
from genelm.tokenizer import next_token_targets

BLAS = K._openblas()
BLAS_THREADS = BLAS[0]() if BLAS else 1
needs_blas = pytest.mark.skipif(BLAS is None, reason="numpy's BLAS is not a reachable OpenBLAS")
needs_split = pytest.mark.skipif(
    BLAS_THREADS < 2, reason=f"OpenBLAS runs {BLAS_THREADS} thread(s): cores() keeps "
                             "the serial path")

TINY = ModelConfig(vocab_size=6, hidden=16, n_layers=2, n_heads=2, ffn_dim=24,
                   max_seq_len=1024)
T = 1024
# the desk model: its 128- and 352-wide GEMMs split their rows, TINY's stay whole
DESK = dataclasses.replace(ModelConfig(), max_seq_len=T)


def outputs(model, ids, scope):
    """Logits, hidden states, the loss and every parameter gradient."""
    with scope:
        logits = model.logits(ids)
        hidden = model.hidden(ids, layer=0)
        for p in model.params.values():
            p.grad = None
        batch = ids[None]
        loss = K.cross_entropy(model.forward(batch), *next_token_targets(batch))
        K.backward(loss)
    grads = {n: p.grad.copy() for n, p in model.params.items()}
    return logits, hidden, loss.data, grads


def assert_scope_changes_no_output(cfg, rng, monkeypatch):
    model = LanguageModel.init(cfg, seed=2)
    ids = rng.integers(0, 6, size=T)
    monkeypatch.setattr(K, "CORES_MIN_LEN", 10**9)  # the gate out of reach
    serial = outputs(model, ids, contextlib.nullcontext())
    split = outputs(model, ids, K.cores())
    for a, b in zip(serial[:3], split[:3]):
        assert np.array_equal(a, b)
    for name, grad in serial[3].items():
        assert np.array_equal(grad, split[3][name]), name


def gemm(a, w, g):
    """matmul's output and both gradients for a stack of rows a, weight w and
    output gradient g."""
    ta, tw = K.Tensor(a.copy(), requires_grad=True), K.Tensor(w.copy(), requires_grad=True)
    out = K.matmul(ta, tw)
    out._bwd(g)
    return out.data, ta.grad, tw.grad


def recording_over(monkeypatch):
    """Patch K.over to record n of every call that splits, and return the list."""
    splits = []
    over = K.over

    def recording(n, fn):
        if K._splitting():
            splits.append(n)
        over(n, fn)

    monkeypatch.setattr(K, "over", recording)
    return splits


def recording_rows(monkeypatch):
    """Patch K.rows to record the row count of every call of its fn (one
    per chunk), and return the list."""
    chunks = []
    rows = K.rows

    def recording(fn, x):
        def counted(xs):
            chunks.append(xs.data.size // xs.data.shape[-1])
            return fn(xs)

        return rows(counted, x)

    monkeypatch.setattr(K, "rows", recording)
    return chunks


def train_digest(cfg, tcfg, data):
    """SHA-1 over the parameters and both Adam moments, and the losses."""
    ckpt, rows = TR.train_stage(cfg, tcfg, data, init_seed=4)
    digest = hashlib.sha1()
    for part in (ckpt.params, *ckpt.moments):
        for n in sorted(part):
            digest.update(part[n].tobytes())
    return digest.hexdigest(), [r["loss"] for r in rows]


@contextlib.contextmanager
def switch_every(seconds):
    """Let threads switch far more often than usual, to shake out races."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)


class TestScope:
    @needs_split
    def test_pins_blas_to_one_thread_and_restores_it(self):
        with K.cores():
            assert BLAS[0]() == 1
            assert K._SPLIT == BLAS_THREADS
        assert BLAS[0]() == BLAS_THREADS
        assert K._SPLIT == 1

    @needs_blas
    def test_restores_blas_threads_when_the_body_raises(self):
        with pytest.raises(ZeroDivisionError):
            with K.cores():
                1 / 0
        assert BLAS[0]() == BLAS_THREADS
        assert K._SPLIT == 1

    @needs_split
    def test_nested_scope_does_nothing(self):
        with K.cores():
            with K.cores():
                assert BLAS[0]() == 1
            assert BLAS[0]() == 1
            assert K._SPLIT == BLAS_THREADS
        assert BLAS[0]() == BLAS_THREADS

    @needs_split
    def test_slices_run_on_pool_threads(self):
        n = 4 * BLAS_THREADS  # more items than slices, so no slice is empty
        seen = {}
        barrier = threading.Barrier(BLAS_THREADS, timeout=10)

        def record(lo, hi):
            seen[(lo, hi)] = threading.get_ident()
            barrier.wait()  # every slice runs at once

        with K.cores():
            K.over(n, record)
        assert sorted(seen) == [(4 * i, 4 * (i + 1)) for i in range(BLAS_THREADS)]
        assert len(set(seen.values())) == BLAS_THREADS
        assert seen[(0, 4)] == threading.get_ident()

    @needs_split
    def test_worker_error_reaches_the_caller(self):
        done = []

        def fail_off_the_calling_thread(lo, hi):
            if lo:
                1 / 0
            done.append(lo)

        with K.cores(), pytest.raises(ZeroDivisionError):
            K.over(4 * BLAS_THREADS, fail_off_the_calling_thread)
        assert done == [0]

    def test_serial_outside_the_scope(self):
        threads = set()
        K.over(10, lambda lo, hi: threads.add((lo, hi, threading.get_ident())))
        assert threads == {(0, 10, threading.get_ident())}

    def test_gate_is_the_sequence_length(self):
        assert isinstance(K.cores_for(K.CORES_MIN_LEN - 1), contextlib.nullcontext)
        assert not isinstance(K.cores_for(K.CORES_MIN_LEN), contextlib.nullcontext)

    def test_train_stage_gates_on_the_tokens_of_a_half(self, rng, monkeypatch):
        """The scope is entered when one thread's share, a half of the batch
        or a batch of one, has at least CORES_MIN_LEN tokens."""
        entered = []
        cores = K.cores

        def counting_cores():
            entered.append(1)
            return cores()

        monkeypatch.setattr(K, "cores", counting_cores)
        short = K.CORES_MIN_LEN // 2
        for batch_size, context, enters in [(1, short, False), (2, short, False),
                                            (3, short, False), (4, short, True),
                                            (1, K.CORES_MIN_LEN, True)]:
            cfg = dataclasses.replace(TINY, max_seq_len=context)
            data = rng.integers(2, 6, size=(batch_size, context)).astype(np.uint8)
            entered.clear()
            TR.train_stage(cfg, TR.TrainConfig(batch_size=batch_size, total_iters=1,
                                               warmup_iters=1), data, init_seed=4)
            assert bool(entered) == enters, (batch_size, context)

    @needs_split
    def test_nested_over_runs_serially(self):
        """An `over` inside a slice runs on the slice's own thread; in a child,
        because a nested split on the one pool thread would never return."""
        code = ("import threading\n"
                "from genelm import kernels as K\n"
                "seen = set()\n"
                "def outer(lo, hi):\n"
                "    me = threading.get_ident()\n"
                "    K.over(4, lambda a, b: seen.add((lo, a, b, threading.get_ident() == me)))\n"
                "with K.cores():\n"
                "    K.over(2, outer)\n"
                "print(sorted(seen))\n")
        assert run_python(code, timeout=60).strip() == "[(0, 0, 4, True), (1, 0, 4, True)]"

    @needs_blas
    def test_one_blas_thread_keeps_the_serial_path(self):
        code = ("from genelm import kernels as K\n"
                "with K.cores():\n"
                "    print(K._SPLIT)\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "1"


class TestBitIdentical:
    @pytest.mark.parametrize("t", [64, 1100])
    def test_attention_forward_and_backward(self, rng, t):
        q, k, v, g = (rng.standard_normal((2, 3, t, 8)).astype(np.float32) for _ in range(4))

        def run(scope):
            tq, tk, tv = (K.Tensor(x.copy(), requires_grad=True) for x in (q, k, v))
            with scope:
                out = K.causal_attention(tq, tk, tv, 0.35)
                out._bwd(g)
            return out.data, tq.grad, tk.grad, tv.grad

        serial = run(contextlib.nullcontext())
        with switch_every(1e-6):
            split = run(K.cores())
        for a, b in zip(serial, split):
            assert np.array_equal(a, b)

    # one BLAS thread inside the scope gives the GEMMs of several outside it;
    # the second shape is the LM head's at t = 2048, the third a float64 graph
    @pytest.mark.parametrize("rows, k, n, dtype", [(4096, 128, 128, np.float32),
                                                   (2048, 128, 6, np.float32),
                                                   (2048, 64, 64, np.float64)])
    def test_matmul_forward_and_backward(self, rng, rows, k, n, dtype):
        a = rng.standard_normal((1, rows, k)).astype(dtype)
        w = rng.standard_normal((k, n)).astype(dtype)
        g = rng.standard_normal((1, rows, n)).astype(dtype)

        def run(scope):
            ta, tw = K.Tensor(a.copy(), requires_grad=True), K.Tensor(w.copy(), requires_grad=True)
            with scope:
                out = K.matmul(ta, tw)
                out._bwd(g)
            return out.data, ta.grad, tw.grad

        for x, y in zip(run(contextlib.nullcontext()), run(K.cores())):
            assert np.array_equal(x, y)

    def test_model_outputs_and_gradients(self, rng, monkeypatch):
        assert_scope_changes_no_output(TINY, rng, monkeypatch)

    def test_desk_model_outputs_and_gradients(self, rng, monkeypatch):
        assert_scope_changes_no_output(DESK, rng, monkeypatch)

    @pytest.mark.parametrize("inside", [False, True])
    @pytest.mark.parametrize("shape", [(1100,), (2048,), (4096,), (3, 700)])
    def test_no_grad_forward_equals_the_graph_forward(self, rng, monkeypatch, shape, inside):
        """The graph-free outputs, whose FFN runs over row chunks
        (`K.rows`), equal the graph-building forward's, inside `cores()` and
        with the scope out of reach."""
        model = LanguageModel.init(dataclasses.replace(DESK, max_seq_len=4096), seed=5)
        ids = rng.integers(2, 6, size=shape)
        if not inside:
            monkeypatch.setattr(K, "CORES_MIN_LEN", 10**9)
        chunks = recording_rows(monkeypatch)
        with K.cores() if inside else contextlib.nullcontext():
            got = [model.logits(ids), model.hidden(ids), model.hidden(ids, layer=1)]
            # ten FFN blocks (4 + 4 + 2), none of them whole
            assert sum(chunks) == 10 * ids.size and max(chunks) < ids.size
            graph = [model.forward(ids), model.forward_hidden(ids),
                     model.forward_hidden(ids, layer=1)]
        for a, b in zip(got, graph):
            assert b.requires_grad
            assert np.array_equal(a, b.data.reshape(a.shape))

    def test_prefix_logits_stable_under_suffix_edit(self, rng):
        model = LanguageModel.init(TINY, seed=3)
        ids = rng.integers(2, 6, size=T)
        edited = ids.copy()
        edited[700:] = rng.integers(2, 6, size=T - 700)
        with K.cores():
            a, b = model.logits(ids), model.logits(edited)
        assert np.array_equal(a[:700], b[:700])

    def test_train_stage_with_and_without_the_scope(self, rng, monkeypatch):
        data = rng.integers(2, 6, size=(6, T)).astype(np.uint8)
        tcfg = TR.TrainConfig(batch_size=2, total_iters=3, warmup_iters=1,
                              lr_peak=1e-3, lr_min=1e-4)
        entered = []
        cores = K.cores

        def counting_cores():
            entered.append(1)
            return cores()

        monkeypatch.setattr(K, "cores", counting_cores)
        ckpt, rows = TR.train_stage(TINY, tcfg, data, init_seed=4)
        assert entered
        # the halves one after the other, on OpenBLAS's own threads
        monkeypatch.setattr(K, "cores", contextlib.nullcontext)
        ckpt_serial, rows_serial = TR.train_stage(TINY, tcfg, data, init_seed=4)
        assert len(entered) == 1
        assert [r["loss"] for r in rows] == [r["loss"] for r in rows_serial]
        for n in ckpt.params:
            assert np.array_equal(ckpt.params[n], ckpt_serial.params[n]), n

    def test_train_stage_batch_of_one_with_and_without_the_scope(self, rng, monkeypatch):
        """A batch of one at CORES_MIN_LEN tokens splits the rows of its ops;
        parameters, both moments and losses equal the whole-op run's."""
        data = rng.integers(2, 6, size=(3, T)).astype(np.uint8)
        tcfg = TR.TrainConfig(batch_size=1, total_iters=3, warmup_iters=1,
                              lr_peak=1e-3, lr_min=1e-4)
        splits = recording_over(monkeypatch)
        threaded = train_digest(DESK, tcfg, data)
        assert splits or BLAS_THREADS < 2
        monkeypatch.setattr(K, "cores", contextlib.nullcontext)
        assert train_digest(DESK, tcfg, data) == threaded


class TestRowSplit:
    """matmul splits a GEMM only when both weight dims are >= GEMM_SPLIT_MIN;
    smaller weights, the LM head among them, differ in the last bit when
    their rows are split."""

    @needs_split
    @pytest.mark.parametrize("rows", [1024, 1100, 2048, 4096])
    @pytest.mark.parametrize("k, n", [(64, 64), (128, 128), (128, 352), (352, 128),
                                      (256, 256), (256, 704), (704, 256)])
    def test_split_gemm_equals_the_whole_one(self, rng, monkeypatch, k, n, rows):
        a = rng.standard_normal((1, rows, k)).astype(np.float32)
        w = rng.standard_normal((k, n)).astype(np.float32)
        g = rng.standard_normal((1, rows, n)).astype(np.float32)
        splits = recording_over(monkeypatch)
        with K.cores():  # one OpenBLAS thread for both
            split = gemm(a, w, g)
            monkeypatch.setattr(K, "_split", K._whole)
            whole = gemm(a, w, g)
        assert splits == [rows, rows, k]  # forward and dX over rows, dW over its rows
        for x, y in zip(split, whole):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("k, n", [(128, 6), (256, 6), (16, 24), (24, 16), (32, 32)])
    def test_lm_head_and_narrow_weights_stay_whole(self, rng, monkeypatch, k, n):
        assert min(k, n) < K.GEMM_SPLIT_MIN
        splits = recording_over(monkeypatch)
        with K.cores():
            gemm(rng.standard_normal((2048, k)), rng.standard_normal((k, n)),
                 rng.standard_normal((2048, n)))
        assert splits == []


# run(batch_size) trains windows of 128 tokens for 3 steps and returns the
# losses, the gradient norms and a digest of the parameters and both Adam
# moments; the same source runs in this process and in a child
HALVES_RUN = """
import hashlib
import numpy as np
from genelm import trainer as TR
from genelm.model import ModelConfig

def run(batch_size):
    cfg = ModelConfig(vocab_size=6, hidden=16, n_layers=2, n_heads=2, ffn_dim=24,
                      max_seq_len=128)
    data = np.random.default_rng(batch_size).integers(1, 6, size=(3 * batch_size, 128))
    tcfg = TR.TrainConfig(batch_size=batch_size, total_iters=3, warmup_iters=1,
                          lr_peak=1e-3, lr_min=1e-4)
    ckpt, rows = TR.train_stage(cfg, tcfg, data.astype(np.uint8), init_seed=5)
    digest = hashlib.sha256()
    for part in (ckpt.params, *ckpt.moments):
        for n in sorted(part):
            digest.update(part[n].tobytes())
    return repr(([r["loss"] for r in rows], [r["grad_norm"] for r in rows],
                 digest.hexdigest()))
"""


def run_python(code, *, timeout, **env):
    src = os.path.dirname(os.path.dirname(K.__file__))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True).stdout


class TestHalves:
    @needs_split
    @pytest.mark.parametrize("batch_size", [2, 3, 8])
    def test_threaded_halves_equal_serial_halves(self, batch_size, monkeypatch):
        """Losses, gradient norms, parameters and both moments are bitwise
        the same with the halves at once on a thread each and one after the
        other in a process whose OpenBLAS runs one thread."""
        serial = run_python(HALVES_RUN + f"print(run({batch_size}))", timeout=120,
                            OPENBLAS_NUM_THREADS="1")
        space = {}
        exec(HALVES_RUN, space)
        halves = []
        over = K.over

        def counting_over(n, fn):
            if K._SPLIT > 1 and not getattr(K._SLICE, "inside", False):
                halves.append(n)  # a split outside any slice: the step's halves
            over(n, fn)

        monkeypatch.setattr(K, "CORES_MIN_LEN", 1)  # halves of 128 tokens split too
        monkeypatch.setattr(K, "over", counting_over)
        with switch_every(1e-6):
            threaded = space["run"](batch_size)
        assert halves == [2, 2, 2]
        assert threaded == serial.strip()

    def test_two_halves_at_a_long_context_finish(self):
        """Each half's attention runs serially inside its slice: a nested
        split would wait on the one pool thread that is running the other
        half."""
        code = ("import numpy as np\n"
                "from genelm import kernels as K, trainer as TR\n"
                "from genelm.model import ModelConfig\n"
                "cfg = ModelConfig(vocab_size=6, hidden=16, n_layers=1, n_heads=2, ffn_dim=24,\n"
                "                  max_seq_len=K.CORES_MIN_LEN)\n"
                "data = np.full((2, K.CORES_MIN_LEN), 3, dtype=np.uint8)\n"
                "_, rows = TR.train_stage(cfg, TR.TrainConfig(batch_size=2, total_iters=1,\n"
                "                                             warmup_iters=1), data)\n"
                "print(len(rows))\n")
        assert run_python(code, timeout=120).strip() == "1"
