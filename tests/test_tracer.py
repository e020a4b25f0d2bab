"""The benchmark's per-layer tracer (perfbench/tracer.py) against the graph
internals it relies on: it wraps each kernel op's `out._bwd` and walks
`._parents` from the loss, and must leave every result bitwise unchanged."""

import importlib
from pathlib import Path

import numpy as np

from genelm import kernels as K
from genelm.model import RECOMPUTE_MIN_LEN, LanguageModel, ModelConfig
from genelm.tokenizer import next_token_targets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def step(model, ids):
    """Loss and every parameter gradient of one training step's backward."""
    for p in model.params.values():
        p.grad = None
    loss = K.cross_entropy(model.forward(ids), *next_token_targets(ids))
    K.backward(loss)
    return loss.data.copy(), {n: p.grad.copy() for n, p in model.params.items()}


def traced_step_equals_untraced(monkeypatch, model, ids):
    """Assert that one step's loss and every gradient are bitwise the same
    with the tracer installed as without it; return the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    plain_loss, plain_grads = step(model, ids)
    tracer.install()
    try:
        traced_loss, traced_grads = step(model, ids)
    finally:
        tracer.uninstall()

    assert np.array_equal(plain_loss, traced_loss)
    assert plain_grads.keys() == traced_grads.keys()
    for name, grad in plain_grads.items():
        assert np.array_equal(grad, traced_grads[name]), name
    return tracer


def test_traced_step_equals_untraced_and_times_the_backward(monkeypatch, rng):
    model = LanguageModel.init(ModelConfig(max_seq_len=128), seed=3)
    ids = rng.integers(2, 6, size=(2, 128))
    raw = traced_step_equals_untraced(monkeypatch, model, ids).raw()
    assert raw["ms"]["kernels.matmul.bwd"] > 0
    assert raw["backward_nodes"] > 0


def test_traced_recomputing_step_equals_untraced(monkeypatch, rng):
    """At RECOMPUTE_MIN_LEN the backward reruns segments of each block
    through the kernels' own pass, not the public `K.backward` the tracer
    wraps with one argument."""
    t = RECOMPUTE_MIN_LEN
    model = LanguageModel.init(ModelConfig(max_seq_len=t), seed=3)
    ids = rng.integers(2, 6, size=(1, t))
    tracer = traced_step_equals_untraced(monkeypatch, model, ids)
    assert tracer.raw()["calls"]["kernels.backward"] == 1
