"""Single-nucleotide tokenization and the token-shard file format.

The vocabulary is fixed: PAD=0, UNK=1, A=2, C=3, G=4, T=5. Encoding maps
each ASCII letter to one token, a lowercase (soft-masked) letter to the
same token as its uppercase form; non-ACGT letters (IUPAC ambiguity codes)
become UNK. Decoding is the inverse on {A,C,G,T}; UNK decodes to 'N' and
PAD to the empty string.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ShardFormatError

PAD_ID = 0
UNK_ID = 1
SYMBOLS = ("PAD", "UNK", "A", "C", "G", "T")
VOCAB_SIZE = len(SYMBOLS)
BASE_IDS = {"A": 2, "C": 3, "G": 4, "T": 5}
_MIN_BASE_ID = min(BASE_IDS.values())  # ids below it (PAD, UNK) are never scored

SHARD_MAGIC = "GENELM-TOKENS v1"

_ENCODE_LUT = np.full(256, -1, dtype=np.int16)
for _c in range(ord("A"), ord("Z") + 1):
    _ENCODE_LUT[_c] = _ENCODE_LUT[ord(chr(_c).lower())] = BASE_IDS.get(chr(_c), UNK_ID)

_DECODE = {0: "", 1: "N", 2: "A", 3: "C", 4: "G", 5: "T"}


def encode(dna: str) -> np.ndarray:
    """Map an ASCII-letter string to a uint8 id array, one id per char;
    soft-masked lowercase bases get their uppercase ids."""
    raw = np.frombuffer(dna.encode("ascii", errors="strict"), dtype=np.uint8)
    ids = _ENCODE_LUT[raw]
    if (ids < 0).any():
        bad = dna[int(np.argmax(ids < 0))]
        raise ValueError(f"cannot encode character {bad!r}: not an ASCII letter")
    return ids.astype(np.uint8)


def decode(ids) -> str:
    """Inverse of encode on {A,C,G,T}; UNK -> 'N', PAD elided."""
    out = []
    for i in np.asarray(ids).ravel():
        i = int(i)
        if i >= VOCAB_SIZE or i < 0:
            raise ValueError(f"token id {i} outside vocabulary of size {VOCAB_SIZE}")
        out.append(_DECODE[i])
    return "".join(out)


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
    return np.stack([encode(w) for w in windows])


# ---------------------------------------------------------------------------
# token-shard files: one ASCII header line, then raw uint8 ids window-aligned
# ---------------------------------------------------------------------------

def write_shard(path: str | os.PathLike, ids: np.ndarray) -> None:
    """Write a (n_windows, window_len) uint8 id matrix as a shard file."""
    ids = np.ascontiguousarray(ids, dtype=np.uint8)
    if ids.ndim != 2:
        raise ValueError(f"shard ids must be 2-D, got shape {ids.shape}")
    header = (f"{SHARD_MAGIC} vocab={','.join(SYMBOLS)} "
              f"window_len={ids.shape[1]} n_windows={ids.shape[0]}\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(ids.tobytes())


def read_shard(path: str | os.PathLike) -> np.ndarray:
    """Read a shard file back into a (n_windows, window_len) uint8 matrix."""
    with open(path, "rb") as f:
        header = f.readline().decode("ascii", errors="replace").rstrip("\n")
        payload = f.read()
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
    if window_len < 1 or n_windows < 0:
        raise ShardFormatError(
            f"{path}: header declares window_len={window_len} n_windows={n_windows}")
    expected = window_len * n_windows
    if len(payload) != expected:
        raise ShardFormatError(
            f"{path}: payload is {len(payload)} bytes, header declares {expected}")
    ids = np.frombuffer(payload, dtype=np.uint8).reshape(n_windows, window_len)
    if ids.size and ids.max() >= VOCAB_SIZE:
        raise ShardFormatError(f"{path}: token id {int(ids.max())} outside vocabulary")
    return ids.copy()
