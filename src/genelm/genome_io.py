"""Genome ingestion: FASTA parsing, windowing, splits, synthetic corpora.

Everything here is a pure function over its inputs.
"""

from __future__ import annotations

import gzip
import io
import math
import os
import re
import string
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


_CHUNK = 1 << 17  # bytes (or characters of a text stream) read per call
_LINE_ENDS = b"\r\n"
_LETTERS = string.ascii_letters.encode("ascii")
# uppercases ASCII letters and keeps every other byte
_UPPER = bytes.maketrans(string.ascii_lowercase.encode("ascii"),
                         string.ascii_uppercase.encode("ascii"))


def _line_blocks(stream):
    """Yield a stream's bytes in blocks of whole lines; a text stream is
    UTF-8 encoded first. No block ends between the \\r and \\n of one
    line end, so every block starts a line."""
    pending: list[bytes] = []  # pieces of a line that spans chunks
    while chunk := stream.read(_CHUNK):
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8", "surrogatepass")
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut == 0:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield b"".join(pending)
        pending = [chunk[cut:]]
    if tail := b"".join(pending):
        yield tail


def _next_header(data: bytes, pos: int) -> int:
    """Offset of the next line at or after pos that starts with '>'."""
    h = data.find(b">", pos)
    while h > 0 and data[h - 1] not in _LINE_ENDS:
        h = data.find(b">", h + 1)
    return len(data) if h < 0 else h


def _line_end(data: bytes, pos: int) -> int:
    end = data.find(b"\n", pos)
    end = len(data) if end < 0 else end
    cr = data.find(b"\r", pos, end)
    return end if cr < 0 else cr


def parse_fasta(source) -> list[FastaRecord]:
    """Parse FASTA from a path or stream into records, in file order.

    Lines end at \\n, \\r\\n or a lone \\r; blank lines are skipped.
    Wrapped sequence lines are concatenated and uppercased (soft-masked
    lowercase is information-free over a 4-letter alphabet). Sequence data
    before any header, an empty header, a non-letter character inside a
    sequence line, or a non-ASCII byte in a binary source raises
    MalformedFastaError with the line number.
    """
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        with (gzip.open if path.endswith(".gz") else open)(path, "rb") as stream:
            return parse_fasta(stream)
    text = isinstance(source, io.TextIOBase)
    codec = ("utf-8", "surrogatepass") if text else ("ascii", "strict")
    records: list[FastaRecord] = []
    header: str | None = None
    parts: list[str] = []
    lines_before = 0  # line ends before the current block

    def error(message: str, pos: int) -> MalformedFastaError:
        # lines are counted only here, on the way out
        ends = data.count(b"\n", 0, pos) + data.count(b"\r", 0, pos) - data.count(b"\r\n", 0, pos)
        return MalformedFastaError(message, lines_before + ends + 1)

    for data in _line_blocks(source):
        ends = 0  # line-end bytes in this block
        pos = 0
        while pos < len(data):
            h = _next_header(data, pos)
            if h > pos:
                seq = data[pos:h].translate(_UPPER, _LINE_ENDS)
                ends += h - pos - len(seq)
                if seq and header is None:
                    first = h - len(data[pos:h].lstrip(_LINE_ENDS))
                    raise error("sequence data before any '>' header", first)
                if seq.translate(None, _LETTERS):
                    bad = pos + re.search(rb"[^A-Za-z\r\n]", data[pos:h]).start()
                    if data[bad] < 0x80:
                        what = f"invalid character {chr(data[bad])!r}"
                    elif text:
                        char = data[bad:_line_end(data, bad)].decode(*codec)[0]
                        what = f"invalid character {char!r}"
                    else:
                        what = f"non-ASCII byte {data[bad]:#04x}"
                    raise error(f"{what} in sequence", bad)
                parts.append(seq.decode("ascii"))
            if h == len(data):
                break
            if header is not None:
                records.append(FastaRecord(header, "".join(parts)))
            pos = _line_end(data, h)
            try:
                header = data[h + 1:pos].decode(*codec).strip()
            except UnicodeDecodeError as exc:
                bad = h + 1 + exc.start
                raise error(f"non-ASCII byte {data[bad]:#04x} in header", bad) from None
            if not header:
                raise error("empty header", h)
            parts = []
        if b"\r" in data:
            ends -= data.count(b"\r\n")
        lines_before += ends
    if header is not None:
        records.append(FastaRecord(header, "".join(parts)))
    return records


FASTA_WIDTH = 60


def serialize_fasta(records: list[FastaRecord]) -> str:
    """Render records back to FASTA text, FASTA_WIDTH bases per line."""
    chunks = []
    for rec in records:
        chunks.append(f">{rec.header}\n")
        seq = rec.sequence
        for i in range(0, len(seq), FASTA_WIDTH):
            chunks.append(seq[i:i + FASTA_WIDTH] + "\n")
    return "".join(chunks)


_COUNT_BYTES = 1 << 17  # window bytes whose ACGT counts are taken at once
_BASE_BYTES = BASES.encode("ascii")


# default share of non-ACGT characters above which a window is dropped
MAX_AMBIGUOUS_FRACTION = 0.1


def extract_windows(records: list[FastaRecord], window_len: int,
                    max_ambiguous_fraction: float = MAX_AMBIGUOUS_FRACTION) -> WindowSet:
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
    rows = max(1, _COUNT_BYTES // window_len)
    for rec in records:
        seq = rec.sequence
        stats.total_bp_read += len(seq)
        n_windows = len(seq) // window_len
        for first in range(0, n_windows, rows):
            a = first * window_len
            b = min(first + rows, n_windows) * window_len
            # one byte per character: a non-ASCII one becomes '?', which is not ACGT
            w = np.frombuffer(seq[a:b].encode("ascii", "replace"),
                              dtype=np.uint8).reshape(-1, window_len)
            is_base = w == _BASE_BYTES[0]
            for code in _BASE_BYTES[1:]:
                is_base |= w == code
            ambiguous = window_len - is_base.sum(axis=1)
            dropped = ambiguous / window_len > max_ambiguous_fraction
            stats.windows_dropped_ambiguous += int(dropped.sum())
            starts = (a + window_len * np.flatnonzero(~dropped)).tolist()
            windows.extend([seq[s:s + window_len] for s in starts])
            origins.extend([(rec.header, s) for s in starts])
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
