"""Per-layer timing by wrapping the program's public functions.

Nothing in the program changes: `Tracer.install` replaces each traced
function in every genelm module that binds it (modules import some of them
by name) with a wrapper that adds up its wall time and calls, and
`uninstall` puts the originals back. Kernel ops also wrap the backward
closure of the tensor they return, so forward and backward are timed
apart. Wrappers only time; arguments and results pass through untouched,
so traced results stay bitwise equal to untraced ones.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict

# ops whose result carries a backward closure
KERNEL_OPS = ("matmul", "rmsnorm", "rope_rotate", "silu", "embedding",
              "cross_entropy", "causal_attention")

# (module, attribute, metric name) of plain timed calls
TIMED = (
    ("genome_io", "parse_fasta", "genome_io.parse_fasta"),
    ("genome_io", "extract_windows", "genome_io.extract_windows"),
    ("genome_io", "split_train_eval", "genome_io.split"),
    ("tokenizer", "encode_windows", "tokenizer.encode_windows"),
    ("tokenizer", "write_shard", "tokenizer.write_shard"),
    ("tokenizer", "read_shard", "tokenizer.read_shard"),
    ("model", "attention_block", "model.attention_block"),
    ("model", "ffn_block", "model.ffn_block"),
    ("trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("trainer", "adamw_step", "trainer.adamw_step"),
    ("downstream", "embed_sequence", "downstream.embed_sequence"),
)

# gradient-norm work of a step: clip_global_norm calls grad_global_norm,
# so only the outermost of the two is timed
CLIP = ("grad_global_norm", "clip_global_norm")

# LanguageModel methods: forward calls forward_hidden, logits calls forward
# and hidden calls forward_hidden
METHODS = ("forward", "forward_hidden", "logits", "hidden")


class Tracer:
    """Accumulates per-layer wall time, call counts and sizes while
    installed."""

    def __init__(self):
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.attn_flops = 0.0
        self.attn_peak_bytes = 0
        self.backward_nodes = 0
        self.scored_seqs = 0
        self.checkpoint_bytes = 0
        self.pool_workers = 0
        self.pool_blas_threads = 0
        self._saved: list[tuple[object, str, object]] = []
        self._depth = defaultdict(int)
        self._peak_shapes: set[tuple] = set()
        self.forks = 0
        os.register_at_fork(after_in_parent=self._count_fork)

    def _count_fork(self) -> None:
        if self._saved:  # only while installed
            self.forks += 1

    # -- patching -------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name == "genelm" or name.startswith("genelm."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function the program still has; a function
        that a later version removes or renames simply reads 0."""
        from genelm import (downstream, evaluator, genome_io, kernels, model, tokenizer,
                            trainer)
        mods = {"downstream": downstream, "evaluator": evaluator, "genome_io": genome_io,
                "kernels": kernels, "model": model, "tokenizer": tokenizer, "trainer": trainer}
        wrap = [(getattr(kernels, op, None), lambda f, op=op: self._kernel(f, op))
                for op in KERNEL_OPS]
        wrap.append((getattr(kernels, "backward", None), self._backward))
        wrap += [(getattr(mods[mod], attr, None), lambda f, m=metric: self._timed(f, m))
                 for mod, attr, metric in TIMED]
        wrap += [(getattr(trainer, attr, None), lambda f: self._timed(f, "trainer.clip", "clip"))
                 for attr in CLIP]
        wrap += [(getattr(trainer, "save_checkpoint", None), self._save),
                 (getattr(evaluator, "corpus_stats", None), self._corpus)]
        try:
            from genelm import parallel
            wrap.append((getattr(parallel, "parallel_map", None), self._pool))
        except ImportError:
            pass
        for original, make in wrap:
            if original is not None:
                self._replace(original, make(original))
        lm = model.LanguageModel
        for meth in METHODS:
            original = vars(lm).get(meth)
            if original is not None:
                self._saved.append((lm, meth, original))
                setattr(lm, meth, self._method(original, meth))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- wrappers -------------------------------------------------------

    def _timed(self, fn, metric, group=None):
        key = group or metric

        def wrapper(*args, **kwargs):
            self._depth[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[key] -= 1
                if not self._depth[key]:
                    self.ms[metric] += (time.perf_counter() - t0) * 1e3
                    self.calls[metric] += 1
        return wrapper

    def _kernel(self, fn, op):
        fwd, bwd = f"kernels.{op}.fwd", f"kernels.{op}.bwd"
        attention = op == "causal_attention"

        def timed_bwd(inner):
            def run(g):
                t0 = time.perf_counter()
                inner(g)
                self.ms[bwd] += (time.perf_counter() - t0) * 1e3
            return run

        def wrapper(*args, **kwargs):
            # tracemalloc slows every allocation, so the peak is taken once
            # per operand shape, which is all it depends on
            shape = args[0].data.shape if attention else None
            peak = attention and shape not in self._peak_shapes
            if peak:
                self._peak_shapes.add(shape)
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - t0) * 1e3
                if peak:
                    self.attn_peak_bytes = max(self.attn_peak_bytes,
                                               tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            self.ms[fwd] += elapsed
            self.calls[fwd] += 1
            if attention:
                b, h, t, d = shape
                self.attn_flops += 4.0 * b * h * t * t * d  # Q K^T and P V
            if out._bwd is not None:
                out._bwd = timed_bwd(out._bwd)
            return out
        return wrapper

    def _backward(self, fn):
        def wrapper(loss):
            seen, stack = {id(loss)}, [loss]
            while stack:
                for p in stack.pop()._parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append(p)
            self.backward_nodes += len(seen)
            t0 = time.perf_counter()
            try:
                return fn(loss)
            finally:
                self.ms["kernels.backward"] += (time.perf_counter() - t0) * 1e3
                self.calls["kernels.backward"] += 1
        return wrapper

    def _save(self, fn):
        timed = self._timed(fn, "trainer.save_checkpoint")

        def wrapper(ckpt, path):
            timed(ckpt, path)
            self.checkpoint_bytes = os.path.getsize(path)
        return wrapper

    def _corpus(self, fn):
        timed = self._timed(fn, "evaluator.corpus_stats")

        def wrapper(model, sequences):
            self.scored_seqs += len(sequences)
            return timed(model, sequences)
        return wrapper

    def _pool(self, fn):
        timed = self._timed(fn, "parallel.parallel_map")
        from envinfo import blas_threads

        def wrapper(*args, **kwargs):
            forks = self.forks
            try:
                return timed(*args, **kwargs)
            finally:  # workers the call forked; 1 when it ran serially
                workers = max(self.forks - forks, 1)
                self.pool_workers = max(self.pool_workers, workers)
                self.pool_blas_threads = max(self.pool_blas_threads, workers * blas_threads())
        return wrapper

    def _method(self, fn, meth):
        metric = f"model.{meth}"

        def wrapper(model_self, *args, **kwargs):
            t0 = time.perf_counter()
            inner_before = self.ms["model.forward_hidden"]
            try:
                return fn(model_self, *args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - t0) * 1e3
                self.ms[metric] += elapsed
                self.calls[metric] += 1
                if meth == "forward":  # self time of forward is the LM head
                    self.ms["model.lm_head"] += elapsed - (
                        self.ms["model.forward_hidden"] - inner_before)
        return wrapper

    # -- results --------------------------------------------------------

    def raw(self) -> dict:
        return {"ms": dict(self.ms), "calls": dict(self.calls),
                "attn_flops": self.attn_flops,
                "attn_peak_bytes": self.attn_peak_bytes,
                "backward_nodes": self.backward_nodes,
                "scored_seqs": self.scored_seqs,
                "checkpoint_bytes": self.checkpoint_bytes,
                "pool_workers": self.pool_workers,
                "pool_blas_threads": self.pool_blas_threads}
