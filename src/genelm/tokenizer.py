"""Single-nucleotide tokenization and the token-shard file format.

The vocabulary is fixed: PAD=0, UNK=1, A=2, C=3, G=4, T=5. Encoding maps
each ASCII letter to one token, a lowercase (soft-masked) letter to the
same token as its uppercase form; non-ACGT letters (IUPAC ambiguity codes)
become UNK.
"""

from __future__ import annotations

import os
import string

import numpy as np

from .atomic import atomic_write
from .errors import ShardFormatError

PAD_ID = 0
UNK_ID = 1
SYMBOLS = ("PAD", "UNK", "A", "C", "G", "T")
VOCAB_SIZE = len(SYMBOLS)
BASE_IDS = {"A": 2, "C": 3, "G": 4, "T": 5}
_MIN_BASE_ID = min(BASE_IDS.values())  # ids below it (PAD, UNK) are never scored

SHARD_MAGIC = "GENELM-TOKENS v1"

_INVALID = 255  # what _ENCODE maps every byte that is not an ASCII letter to
_ENCODE = bytes(BASE_IDS.get(chr(c).upper(), UNK_ID) if chr(c) in string.ascii_letters
                else _INVALID for c in range(256))
_ENCODE_BYTES = 1 << 17  # window characters encoded per batch


def _translate(dna: str) -> bytes:
    """Token ids of dna as bytes, one per character."""
    # one byte per character: a non-ASCII one becomes '?', which _ENCODE rejects
    ids = dna.encode("ascii", "replace").translate(_ENCODE)
    bad = ids.find(_INVALID)
    if bad >= 0:
        raise ValueError(f"cannot encode character {dna[bad]!r}: not an ASCII letter")
    return ids


def encode(dna: str) -> np.ndarray:
    """Map an ASCII-letter string to a uint8 id array, one id per char;
    soft-masked lowercase bases get their uppercase ids."""
    return np.frombuffer(bytearray(_translate(dna)), dtype=np.uint8)


def next_token_targets(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-token targets along the last axis and the mask of scored
    positions: the final position and PAD/UNK targets are not scored. This
    is the one rule shared by the training loss and evaluation."""
    ids = np.asarray(ids)
    targets = np.zeros_like(ids)
    targets[..., :-1] = ids[..., 1:]
    mask = np.zeros(ids.shape, dtype=bool)
    mask[..., :-1] = targets[..., :-1] >= _MIN_BASE_ID
    return targets, mask


def encode_windows(windows: list[str]) -> np.ndarray:
    """Encode equal-length windows into a (n, window_len) uint8 matrix."""
    if not windows:
        return np.zeros((0, 0), dtype=np.uint8)
    lengths = set(map(len, windows))
    if len(lengths) > 1:
        raise ValueError(f"windows differ in length: {sorted(lengths)[:4]}")
    ids = np.empty((len(windows), lengths.pop()), dtype=np.uint8)
    rows = max(1, _ENCODE_BYTES // max(ids.shape[1], 1))
    for first in range(0, len(ids), rows):
        part = ids[first:first + rows]
        part[:] = np.frombuffer(_translate("".join(windows[first:first + rows])),
                                dtype=np.uint8).reshape(part.shape)
    return ids


# ---------------------------------------------------------------------------
# token-shard files: one ASCII header line, then raw uint8 ids window-aligned
# ---------------------------------------------------------------------------

def write_shard(path: str | os.PathLike, ids: np.ndarray) -> None:
    """Write a (n_windows, window_len) uint8 id matrix as a shard file,
    atomically (see `atomic_write`)."""
    ids = np.ascontiguousarray(ids, dtype=np.uint8)
    if ids.ndim != 2:
        raise ValueError(f"shard ids must be 2-D, got shape {ids.shape}")
    header = (f"{SHARD_MAGIC} vocab={','.join(SYMBOLS)} "
              f"window_len={ids.shape[1]} n_windows={ids.shape[0]}\n")
    with atomic_write(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(memoryview(ids))


def read_shard(path: str | os.PathLike) -> np.ndarray:
    """Read a shard file back into a (n_windows, window_len) uint8 matrix,
    checking the file's size against the header before allocating it."""
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace").rstrip("\n")
        fields = header.split(" ")
        if " ".join(fields[:2]) != SHARD_MAGIC:
            raise ShardFormatError(f"{path}: bad magic {header[:40]!r}")
        meta = dict(part.split("=", 1) for part in fields[2:] if "=" in part)
        if meta.get("vocab") != ",".join(SYMBOLS):
            raise ShardFormatError(f"{path}: vocabulary mismatch: {meta.get('vocab')!r}")
        try:
            window_len = int(meta["window_len"])
            n_windows = int(meta["n_windows"])
        except (KeyError, ValueError) as exc:
            raise ShardFormatError(f"{path}: bad header fields: {header!r}") from exc
        if not (1 <= window_len <= np.iinfo(np.intp).max and n_windows >= 0):
            raise ShardFormatError(
                f"{path}: header declares window_len={window_len} n_windows={n_windows}")
        expected = window_len * n_windows
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != expected:
            raise ShardFormatError(
                f"{path}: payload is {size} bytes, header declares {expected}")
        ids = np.empty((n_windows, window_len), dtype=np.uint8)
        got = f.readinto(memoryview(ids.reshape(-1)))
    if got != expected:  # the file shrank after the size check
        raise ShardFormatError(f"{path}: payload is {got} bytes, header declares {expected}")
    if ids.size and ids.max() >= VOCAB_SIZE:
        raise ShardFormatError(f"{path}: token id {int(ids.max())} outside vocabulary")
    return ids
