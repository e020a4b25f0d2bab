"""Seeded benchmark inputs, built without the program under test.

The benchmark owns its Markov source, its FASTA writer and its own base
encoding, so the program's outputs can be checked against independent
computations. Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

BASES = b"ACGT"
UNK = 1

# Byte -> token id, written from the vocabulary in the program's README
# ([PAD, UNK, A, C, G, T]); soft-masked lowercase maps like uppercase.
ENCODE = np.full(256, -1, dtype=np.int16)
for _c in range(ord("A"), ord("Z") + 1):
    ENCODE[_c] = UNK
    ENCODE[_c + 32] = UNK
for _i, _b in enumerate(BASES):
    ENCODE[_b] = 2 + _i
    ENCODE[_b + 32] = 2 + _i
DECODE = np.frombuffer(b"\0NACGT", dtype=np.uint8)


def transition_matrix(seed: int, order: int, sharpness: float) -> np.ndarray:
    """(4**order, 4) next-base probabilities: rows are
    softmax(sharpness * standard normal draws)."""
    rng = np.random.default_rng([seed, 1])
    logits = sharpness * rng.standard_normal((4 ** order, 4))
    rows = np.exp(logits - logits.max(axis=1, keepdims=True))
    return rows / rows.sum(axis=1, keepdims=True)


def entropy_rate(P: np.ndarray) -> float:
    """Entropy rate in nats of the order-k chain with transition rows P,
    weighted by the stationary distribution over k-base contexts."""
    n_ctx = P.shape[0]
    nxt = (np.arange(n_ctx)[:, None] * 4 + np.arange(4)[None, :]) % n_ctx
    pi = np.full(n_ctx, 1.0 / n_ctx)
    for _ in range(10_000):
        new = np.zeros(n_ctx)
        np.add.at(new, nxt.ravel(), (pi[:, None] * P).ravel())
        done = np.abs(new - pi).max() < 1e-15
        pi = new
        if done:
            break
    row_h = -(P * np.log(P)).sum(axis=1)
    return float(pi @ row_h)


def markov_codes(rng: np.random.Generator, P: np.ndarray, length: int) -> np.ndarray:
    """`length` base codes (0..3) drawn from the chain. Independent lanes are
    sampled side by side and concatenated, so the chain restarts from a
    uniform random context every ~2 kbp (at least 64 lanes). A restart
    only adds uncertainty: the entropy rate stays a lower bound on loss."""
    n_ctx = P.shape[0]
    lanes = max(64, length // 2048)
    cdf = np.cumsum(P, axis=1)
    cdf[:, -1] = 1.0
    steps = -(-length // lanes)
    out = np.empty((steps, lanes), dtype=np.uint8)
    ctx = rng.integers(0, n_ctx, size=lanes)
    u = rng.random((steps, lanes))
    for s in range(steps):
        b = (u[s][:, None] > cdf[ctx]).sum(axis=1)
        out[s] = b
        ctx = (ctx * 4 + b) % n_ctx
    return out.T.ravel()[:length]


def _runs(rng: np.random.Generator, length: int, per_mbp: float,
          min_len: int, max_len: int) -> np.ndarray:
    """Boolean mask of `length` covering Poisson-placed runs whose lengths
    are log-uniform in [min_len, max_len]."""
    n = rng.poisson(per_mbp * length / 1e6)
    starts = rng.integers(0, length, size=n)
    lens = np.exp(rng.uniform(np.log(min_len), np.log(max_len), size=n)).astype(np.int64)
    delta = np.zeros(length + 1, dtype=np.int32)
    np.add.at(delta, starts, 1)
    np.add.at(delta, np.minimum(starts + lens, length), -1)
    return np.cumsum(delta[:-1]) > 0


def genome_bytes(rng: np.random.Generator, P: np.ndarray, length: int,
                 lower_per_mbp: float, n_per_mbp: float) -> np.ndarray:
    """ASCII bases of one record: Markov bases, soft-masked lowercase runs
    (50-2000 bp) and N runs (20-3000 bp)."""
    seq = np.frombuffer(BASES, dtype=np.uint8)[markov_codes(rng, P, length)]
    if n_per_mbp:
        seq[_runs(rng, length, n_per_mbp, 20, 3000)] = ord("N")
    if lower_per_mbp:
        seq[_runs(rng, length, lower_per_mbp, 50, 2000)] += 32
    return seq


def write_fasta(path, records: list[tuple[str, np.ndarray]], widths: list[int]) -> None:
    """Write (header, ASCII bytes) records, record i wrapped at widths[i]."""
    with open(path, "wb") as f:
        for (header, seq), width in zip(records, widths):
            f.write(f">{header}\n".encode("ascii"))
            n_full = len(seq) // width
            body = np.empty((n_full, width + 1), dtype=np.uint8)
            body[:, :width] = seq[:n_full * width].reshape(n_full, width)
            body[:, width] = ord("\n")
            f.write(body.tobytes())
            if len(seq) % width:
                f.write(seq[n_full * width:].tobytes() + b"\n")


def make_genome(seed: int, P: np.ndarray, spec: dict) -> list[tuple[str, np.ndarray]]:
    """The records a workload's FASTA holds, drawn from the chain P."""
    rng = np.random.default_rng([seed, 2])
    return [(f"chr{i + 1} seed={seed}",
             genome_bytes(rng, P, n, spec["lower_per_mbp"], spec["n_per_mbp"]))
            for i, n in enumerate(spec["record_bp"])]


def encode(seq: np.ndarray) -> np.ndarray:
    """Token ids of ASCII bases through the benchmark's own table."""
    ids = ENCODE[seq]
    if (ids < 0).any():
        raise ValueError("non-letter byte in sequence")
    return ids.astype(np.uint8)


def windows(records: list[tuple[str, np.ndarray]], window_len: int,
            max_ambiguous_fraction: float = 0.1) -> np.ndarray:
    """Consecutive windows of every record, remainder dropped, windows
    with more than the allowed share of UNK dropped."""
    out = []
    for _, seq in records:
        n = len(seq) // window_len
        ids = encode(seq[:n * window_len]).reshape(n, window_len)
        keep = (ids == UNK).sum(axis=1) / window_len <= max_ambiguous_fraction
        out.append(ids[keep])
    return np.concatenate(out) if out else np.zeros((0, window_len), np.uint8)


def sequences(seed: int, P: np.ndarray, lengths: list[int]) -> list[str]:
    """Pure-ACGT Markov sequences of the given lengths."""
    rng = np.random.default_rng([seed, 3])
    codes = markov_codes(rng, P, sum(lengths))
    text = np.frombuffer(BASES, dtype=np.uint8)[codes].tobytes().decode("ascii")
    bounds = np.cumsum([0] + list(lengths))
    return [text[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def spread_lengths(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """n lengths evenly spaced over [lo, hi] in random order: the amount of
    work is the same for every seed, only its order and content change."""
    return rng.permutation(np.linspace(lo, hi, n).round().astype(int)).tolist()
