import numpy as np
import pytest
from hypothesis import strategies as st

from genelm import kernels as K
from genelm import trainer as TR
from genelm.model import LanguageModel

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, description: str, ok: bool, detail: str = ""):
    """One pass/fail line per acceptance criterion, echoed in the summary."""
    line = f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def pytest_addoption(parser):
    parser.addoption("--run-long", action="store_true",
                     help="also run the tests marked long (minutes each)")


def pytest_configure(config):
    config.addinivalue_line("markers", "long: a long-context test, run with --run-long")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="long-context test: pass --run-long to run it")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def five_point_grad(loss_fn, h: float = 1e-2) -> float:
    """Fourth-order central difference: (-f(2h) + 8f(h) - 8f(-h) + f(-2h)) / 12h.

    loss_fn(delta) must evaluate the loss with one coordinate shifted by
    delta. Truncation is O(h^4), which keeps the oracle's own error far
    below the tolerances the gradients are checked at.
    """
    return (-loss_fn(2 * h) + 8 * loss_fn(h) - 8 * loss_fn(-h) + loss_fn(-2 * h)) / (12 * h)


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_grad(build_loss, arrays: dict, rng, n_coords: int = 6,
               tol: float = 1e-4, h: float = 1e-3, floor: float = 1e-6):
    """Compare analytic gradients of build_loss(tensors) against the
    five-point finite-difference oracle at randomly sampled coordinates.

    `arrays` maps names to float64 numpy arrays; build_loss receives a
    dict of Tensors and returns a scalar Tensor.
    """
    tensors = {n: K.Tensor(a.copy(), requires_grad=True) for n, a in arrays.items()}
    K.backward(build_loss(tensors))
    for name, base in arrays.items():
        grad = tensors[name].grad
        if grad is None:
            grad = np.zeros_like(base)
        for _ in range(n_coords):
            idx = tuple(rng.integers(0, s) for s in base.shape) if base.ndim else ()

            def loss_at(delta):
                shifted = {n: K.Tensor(a) for n, a in arrays.items()}
                moved = base.copy()
                moved[idx] += delta
                shifted[name] = K.Tensor(moved)
                return float(build_loss(shifted).data)

            numeric = five_point_grad(loss_at, h)
            analytic = float(grad[idx])
            assert rel_err(analytic, numeric, floor) < tol, (
                f"{name}{idx}: analytic={analytic:.8e} numeric={numeric:.8e}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """`valid` with one to four edits: a byte flipped, bytes inserted or
    deleted, or the tail cut off."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("flip", "insert", "delete", "cut")))
        if edit == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 4))]
        elif edit == "cut":
            del data[at:]
    return bytes(data)


def infinite_loss_checkpoint(cfg, train_config) -> TR.Checkpoint:
    """A step-0 checkpoint whose float32 loss is infinite on any batch with
    a C target (id 3), while its gradients stay finite: every block adds
    zero, so each hidden state is the unit-RMS all-ones embedding, and
    the LM head puts logit 2e38 on A (id 2) and -2e38 on C."""
    params = {n: p.data for n, p in LanguageModel.init(cfg).named_params().items()}
    for name, a in params.items():
        if name.rsplit(".", 1)[-1] in ("wq", "wk", "wv", "wo", "w1", "w2", "w3"):
            a[...] = 0
    params["token_embedding"][...] = 1
    params["lm_head"][:, 2] = 2e38 / cfg.hidden
    params["lm_head"][:, 3] = -2e38 / cfg.hidden
    return TR.Checkpoint(cfg, train_config, params, None, step=0, stage=0, data_seed=0)
