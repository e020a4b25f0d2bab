"""Genome ingestion: FASTA parsing, windowing, splits, synthetic corpora.

Everything here is a pure function over its inputs; multiple files can be
processed by independent workers without shared state.
"""

from __future__ import annotations

import gzip
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedFastaError

BASES = "ACGT"


@dataclass
class FastaRecord:
    """One parsed FASTA entry: header text (after '>') and the uppercased,
    unwrapped sequence."""

    header: str
    sequence: str


@dataclass
class SourceStats:
    total_bp_read: int = 0
    windows_kept: int = 0
    windows_dropped_ambiguous: int = 0


@dataclass
class WindowSet:
    """Fixed-length windows cut from one or more records.

    origins[i] gives (record header, start offset in bp) for windows[i].
    """

    windows: list[str]
    window_len: int
    source_stats: SourceStats
    origins: list[tuple[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.windows)


def _open_lines(source):
    """Yield text lines from a path (gzip by extension) or a file object."""
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        opener = gzip.open if path.endswith(".gz") else open
        return opener(path, "rt", encoding="ascii", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    # binary stream
    return io.TextIOWrapper(source, encoding="ascii", newline=""), False


def parse_fasta(source) -> list[FastaRecord]:
    """Parse FASTA from a path or stream into records, in file order.

    Wrapped sequence lines are concatenated and uppercased (soft-masked
    lowercase is information-free over a 4-letter alphabet). Sequence data
    before any header, or a non-letter character inside a sequence line,
    raises MalformedFastaError with the line number.
    """
    stream, owns = _open_lines(source)
    records: list[FastaRecord] = []
    header: str | None = None
    parts: list[str] = []
    try:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                continue
            if line.startswith(">"):
                if header is not None:
                    records.append(FastaRecord(header, "".join(parts)))
                header = line[1:].strip()
                if not header:
                    raise MalformedFastaError("empty header", lineno)
                parts = []
            else:
                if header is None:
                    raise MalformedFastaError(
                        "sequence data before any '>' header", lineno)
                if not line.isascii() or not line.isalpha():
                    bad = next(ch for ch in line if not (ch.isascii() and ch.isalpha()))
                    raise MalformedFastaError(
                        f"invalid character {bad!r} in sequence", lineno)
                parts.append(line.upper())
        if header is not None:
            records.append(FastaRecord(header, "".join(parts)))
    finally:
        if owns:
            stream.close()
    return records


def serialize_fasta(records: list[FastaRecord], width: int = 60) -> str:
    """Render records back to FASTA text with fixed-width line wrapping."""
    chunks = []
    for rec in records:
        chunks.append(f">{rec.header}\n")
        seq = rec.sequence
        for i in range(0, len(seq), width):
            chunks.append(seq[i:i + width] + "\n")
    return "".join(chunks)


def _ambiguous_count(window: str) -> int:
    n = len(window)
    for b in BASES:
        n -= window.count(b)
    return n


def extract_windows(records: list[FastaRecord], window_len: int,
                    max_ambiguous_fraction: float = 0.1) -> WindowSet:
    """Cut records into consecutive non-overlapping windows of window_len.

    A trailing remainder shorter than window_len is dropped. Windows whose
    fraction of non-ACGT characters exceeds max_ambiguous_fraction are
    dropped and counted.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    if not 0.0 <= max_ambiguous_fraction <= 1.0:
        raise ValueError(
            f"max_ambiguous_fraction must be in [0, 1], got {max_ambiguous_fraction}")
    stats = SourceStats()
    windows: list[str] = []
    origins: list[tuple[str, int]] = []
    for rec in records:
        seq = rec.sequence
        stats.total_bp_read += len(seq)
        for start in range(0, len(seq) - window_len + 1, window_len):
            w = seq[start:start + window_len]
            if _ambiguous_count(w) / window_len > max_ambiguous_fraction:
                stats.windows_dropped_ambiguous += 1
                continue
            windows.append(w)
            origins.append((rec.header, start))
    stats.windows_kept = len(windows)
    return WindowSet(windows, window_len, stats, origins)


def _subset(ws: WindowSet, idx) -> WindowSet:
    stats = SourceStats(ws.source_stats.total_bp_read, len(idx),
                        ws.source_stats.windows_dropped_ambiguous)
    return WindowSet([ws.windows[i] for i in idx], ws.window_len, stats,
                     [ws.origins[i] for i in idx] if ws.origins else [])


def split_train_eval(windows: WindowSet, eval_fraction: float,
                     seed: int) -> tuple[WindowSet, WindowSet]:
    """Deterministic seeded shuffle, then the first ceil(N * eval_fraction)
    windows go to eval and the rest to train."""
    if not 0.0 <= eval_fraction < 1.0:
        raise ValueError(f"eval_fraction must be in [0, 1), got {eval_fraction}")
    n = len(windows)
    perm = np.random.default_rng(seed).permutation(n)
    n_eval = math.ceil(n * eval_fraction)
    return _subset(windows, perm[n_eval:].tolist()), _subset(windows, perm[:n_eval].tolist())


def split_by_source(windows: WindowSet, eval_headers) -> tuple[WindowSet, WindowSet]:
    """Held-out-source split: windows whose origin header is listed go to
    eval, everything else to train. Requires origin tracking."""
    if len(windows.origins) != len(windows.windows):
        raise ValueError("window set lacks origin tracking; cannot split by source")
    held = set(eval_headers)
    eval_idx = [i for i, (hdr, _) in enumerate(windows.origins) if hdr in held]
    train_idx = [i for i, (hdr, _) in enumerate(windows.origins) if hdr not in held]
    return _subset(windows, train_idx), _subset(windows, eval_idx)


# ---------------------------------------------------------------------------
# synthetic genomes
# ---------------------------------------------------------------------------

def markov_chain(seed: int, markov_order: int, sharpness: float) -> np.ndarray:
    """Transition matrix (4^order rows, 4 columns) of the synthetic chain.

    Rows are softmax(sharpness * gaussian draws); sharpness 0 gives the
    uniform i.i.d. chain. The same (seed, order) always yields the same
    gaussian draws, so generate_synthetic_genome emits from exactly this
    matrix.
    """
    if markov_order < 0:
        raise ValueError(f"markov_order must be >= 0, got {markov_order}")
    if sharpness < 0:
        raise ValueError(f"sharpness must be >= 0, got {sharpness}")
    rng = np.random.default_rng(seed)
    logits = sharpness * rng.standard_normal((4 ** markov_order, 4))
    logits -= logits.max(axis=1, keepdims=True)
    rows = np.exp(logits)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def generate_synthetic_genome(seed: int, length: int, markov_order: int = 0,
                              sharpness: float = 0.0) -> FastaRecord:
    """Emit a deterministic sequence from a randomly initialized order-k
    Markov chain over {A,C,G,T}."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rows = markov_chain(seed, markov_order, sharpness)
    # continue the same stream the matrix was drawn from: one seed, one genome
    rng = np.random.default_rng(seed)
    rng.standard_normal((4 ** markov_order, 4))
    k = markov_order
    n_ctx = 4 ** k
    cdf = np.cumsum(rows, axis=1)
    cdf[:, -1] = 1.0
    cdf_rows = cdf.tolist()

    start = rng.integers(0, 4, size=k).tolist() if k else []
    out = list(start[:length])
    ctx = 0
    for b in out:
        ctx = (ctx * 4 + b) % n_ctx
    draws = rng.random(max(length - len(out), 0))
    for u in draws:
        row = cdf_rows[ctx]
        b = 0 if u < row[0] else 1 if u < row[1] else 2 if u < row[2] else 3
        out.append(b)
        ctx = (ctx * 4 + b) % n_ctx if n_ctx > 1 else 0
    seq = "".join(BASES[b] for b in out)
    header = f"synthetic seed={seed} order={markov_order} sharpness={sharpness:g}"
    return FastaRecord(header, seq)


def plant_repeats(sequence: str, lag: int, motif_len: int, period: int) -> str:
    """Overwrite the sequence with exact long-range repeats.

    Every `period` positions, the `motif_len` bases that occurred `lag`
    positions earlier are copied forward. The result has predictable
    content at a fixed relative offset, which only a model whose usable
    context reaches `lag` can exploit.
    """
    if lag < 1 or motif_len < 1 or period < motif_len:
        raise ValueError("need lag >= 1, motif_len >= 1, period >= motif_len")
    seq = list(sequence)
    for pos in range(lag, len(seq), period):
        src = pos - lag
        chunk = seq[src:src + motif_len][:len(seq) - pos]
        seq[pos:pos + len(chunk)] = chunk
    return "".join(seq)
