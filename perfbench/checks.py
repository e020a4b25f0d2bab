"""Checks of the program's outputs against the benchmark's own computations
or required properties. Each returns a list of failure messages; an empty
list means the outputs passed.

Tolerances compare the program's float32 arithmetic with the float64
reference: mean NLL within a relative 1e-4, reconstruction accuracy within
an absolute 2e-3 (argmax ties may break differently at a few positions),
embeddings within an absolute 1e-3.
"""

from __future__ import annotations

import math

import numpy as np

NLL_RTOL = 1e-4
ACC_ATOL = 2e-3
EMBED_ATOL = 1e-3


def read_shard(path) -> np.ndarray:
    """(n_windows, window_len) ids from the documented shard layout."""
    with open(path, "rb") as f:
        fields = dict(p.split("=", 1) for p in f.readline().decode("ascii").split()
                      if "=" in p)
        payload = f.read()
    return np.frombuffer(payload, dtype=np.uint8).reshape(
        int(fields["n_windows"]), int(fields["window_len"]))


def shards(train: np.ndarray, held: np.ndarray, expected: np.ndarray) -> list[str]:
    """Train and eval rows together equal the expected windows as a
    multiset."""
    got = np.concatenate([train, held])
    if got.shape != expected.shape:
        return [f"shards hold {got.shape} windows, expected {expected.shape}"]
    if sorted(map(bytes, got)) != sorted(map(bytes, expected)):
        return ["shard rows differ from the benchmark's own encoding of its genome"]
    return []


def losses(values: list[float], entropy_rate: float, must_decrease: bool) -> list[str]:
    out = []
    if not values or not all(math.isfinite(v) for v in values):
        out.append(f"non-finite or missing training loss: {values}")
        return out
    if must_decrease and not values[-1] < values[0]:
        out.append(f"final loss {values[-1]:.6f} not below first-step loss {values[0]:.6f}")
    if values[-1] < entropy_rate:
        out.append(f"final loss {values[-1]:.6f} below the source's entropy rate "
                   f"{entropy_rate:.6f}")
    return out


def roundtrip(first: bytes, second: bytes) -> list[str]:
    return [] if first == second else ["checkpoint save -> load -> save is not byte-identical"]


def rope_bases(bases: list[float], lengths: list[int]) -> list[str]:
    """Each extension's rotary base is the previous base x (new/old)^2."""
    out = []
    for (b0, b1), (l0, l1) in zip(zip(bases, bases[1:]), zip(lengths, lengths[1:])):
        want = b0 * (l1 / l0) ** 2
        if not math.isclose(b1, want, rel_tol=1e-12):
            out.append(f"rotary base at {l1} is {b1}, expected {want}")
    return out


def scores(got: tuple, ref: tuple, what: str) -> list[str]:
    """Pooled (nll_sum, n_scored, n_correct) against the reference."""
    (g_nll, g_n, g_c), (r_nll, r_n, r_c) = got, ref
    if g_n != r_n:
        return [f"{what}: {g_n} scored tokens, reference scores {r_n}"]
    out = []
    if not abs(g_nll / g_n - r_nll / r_n) <= NLL_RTOL * (r_nll / r_n):
        out.append(f"{what}: mean NLL {g_nll / g_n:.8f}, reference {r_nll / r_n:.8f}")
    if not abs(g_c / g_n - r_c / r_n) <= ACC_ATOL:
        out.append(f"{what}: accuracy {g_c / g_n:.6f}, reference {r_c / r_n:.6f}")
    return out


def sweep_rows(rows: list[dict], ref: dict[int, tuple], n_sequences: dict[int, int]) -> list[str]:
    """Length-sweep rows: ppl = exp(mean_nll), every next-token position
    scored, NLL and accuracy as the reference's."""
    out = []
    if sorted(r["eval_length"] for r in rows) != sorted(ref):
        return [f"sweep rows cover {[r['eval_length'] for r in rows]}, expected {sorted(ref)}"]
    for r in rows:
        length = r["eval_length"]
        if r["ppl"] != math.exp(r["mean_nll"]):
            out.append(f"length {length}: ppl {r['ppl']} != exp(mean_nll)")
        if r["n_sequences"] != n_sequences[length]:
            out.append(f"length {length}: {r['n_sequences']} sequences, "
                       f"expected {n_sequences[length]}")
        if r["n_scored_tokens"] != r["n_sequences"] * (length - 1):
            out.append(f"length {length}: {r['n_scored_tokens']} scored tokens, "
                       f"expected n_sequences * (length - 1)")
        got = (r["mean_nll"] * r["n_scored_tokens"], r["n_scored_tokens"],
               round(r["recon_acc"] * r["n_scored_tokens"]))
        out += scores(got, ref[length], f"length {length}")
    return out


def embeddings(got: np.ndarray, ref: np.ndarray) -> list[str]:
    if got.shape != ref.shape:
        return [f"embeddings shape {got.shape}, reference {ref.shape}"]
    err = float(np.abs(got - ref).max())
    return [] if err <= EMBED_ATOL else [f"embeddings differ from the reference by {err:.3g}"]
