"""The benchmark's per-layer tracer (perfbench/tracer.py) against the graph
internals it relies on: it wraps each kernel op's `out._bwd` and walks
`._parents` from the loss, and must leave every result bitwise unchanged."""

import importlib
from pathlib import Path

import numpy as np

from genelm import kernels as K
from genelm.model import LanguageModel, ModelConfig
from genelm.tokenizer import next_token_targets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def step(model, ids):
    """Loss and every parameter gradient of one training step's backward."""
    for p in model.params.values():
        p.grad = None
    loss = K.cross_entropy(model.forward(ids), *next_token_targets(ids))
    K.backward(loss)
    return loss.data.copy(), {n: p.grad.copy() for n, p in model.params.items()}


def test_traced_step_equals_untraced_and_times_the_backward(monkeypatch, rng):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    model = LanguageModel.init(ModelConfig(max_seq_len=128), seed=3)
    ids = rng.integers(2, 6, size=(2, 128))

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
    raw = tracer.raw()
    assert raw["ms"]["kernels.matmul.bwd"] > 0
    assert raw["backward_nodes"] > 0
