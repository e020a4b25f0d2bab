import numpy as np
import pytest
from hypothesis import strategies as st

from genelm import kernels as K

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, description: str, ok: bool, detail: str = ""):
    """One pass/fail line per acceptance criterion, echoed in the summary."""
    line = f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


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
