from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated
from genelm import tokenizer as T
from genelm.errors import ShardFormatError


# the int16 lookup-table encoder and per-window stack that the translate-table
# encoder must reproduce exactly
ORACLE_LUT = np.full(256, -1, dtype=np.int16)
for _c in range(ord("A"), ord("Z") + 1):
    ORACLE_LUT[_c] = ORACLE_LUT[ord(chr(_c).lower())] = T.BASE_IDS.get(chr(_c), T.UNK_ID)


def oracle_encode(dna: str) -> np.ndarray:
    ids = ORACLE_LUT[np.frombuffer(dna.encode("ascii"), dtype=np.uint8)]
    if (ids < 0).any():
        bad = dna[int(np.argmax(ids < 0))]
        raise ValueError(f"cannot encode character {bad!r}: not an ASCII letter")
    return ids.astype(np.uint8)


def oracle_encode_windows(windows: list[str]) -> np.ndarray:
    if not windows:
        return np.zeros((0, 0), dtype=np.uint8)
    return np.stack([oracle_encode(w) for w in windows])


def outcome(fn, arg):
    try:
        ids = fn(arg)
    except ValueError as exc:
        return type(exc), str(exc)
    return ids.dtype, ids.shape, ids.tobytes()


ASCII = st.characters(min_codepoint=0, max_codepoint=127)


class TestEncodeDecode:
    def test_bases(self):
        assert T.encode("ACGT").tolist() == [2, 3, 4, 5]

    def test_unk_mapping(self):
        assert T.encode("ACGN").tolist() == [2, 3, 4, 1]
        assert T.encode("RYKMSWBDHV").tolist() == [1] * 10

    def test_soft_masked_same_as_uppercase(self):
        assert T.encode("acgtnRyk").tolist() == T.encode("ACGTNRYK").tolist()

    def test_non_letter_rejected(self):
        with pytest.raises(ValueError):
            T.encode("AC-T")
        with pytest.raises(ValueError):
            T.encode("ac gt")

    @given(st.text(alphabet=ASCII, max_size=300))
    def test_encode_matches_lookup_table_oracle(self, s):
        assert outcome(T.encode, s) == outcome(oracle_encode, s)

    def test_non_ascii_character_named(self):
        with pytest.raises(ValueError, match="'\u00e9'"):
            T.encode("AC\u00e9T")

    @given(st.integers(0, 12), st.integers(0, 9), st.integers(1, 40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_encode_windows_matches_stack_oracle(self, width, n, batch, data):
        windows = data.draw(st.lists(
            st.text(alphabet="ACGTacgtNnRy", min_size=width, max_size=width),
            min_size=n, max_size=n))
        if windows and width and data.draw(st.booleans()):  # a bad character somewhere
            i = data.draw(st.integers(0, n - 1))
            j = data.draw(st.integers(0, width - 1))
            bad = data.draw(st.sampled_from("-*. @[`{9"))
            windows[i] = windows[i][:j] + bad + windows[i][j + 1:]
        if windows and data.draw(st.booleans()):  # drop the equal-length guarantee
            windows[-1] = windows[-1][:-1]
        want = outcome(oracle_encode_windows, windows)
        with mock.patch.object(T, "_ENCODE_BYTES", batch):
            got = outcome(T.encode_windows, windows)
        if len(set(map(len, windows))) > 1:  # np.stack raised its own message
            assert got[0] is want[0] is ValueError
        else:
            assert got == want

    @given(st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90),
                   min_size=0, max_size=300))
    def test_length_preserved_and_ids_in_range(self, s):
        ids = T.encode(s)
        assert len(ids) == len(s)
        if len(ids):
            assert ids.max() < T.VOCAB_SIZE
            assert ids.min() >= 0


def shard_bytes(window_len: bytes, n_windows: bytes, payload: bytes) -> bytes:
    return (f"{T.SHARD_MAGIC} vocab={','.join(T.SYMBOLS)} ".encode()
            + b"window_len=" + window_len + b" n_windows=" + n_windows + b"\n" + payload)


VALID_SHARD = shard_bytes(b"4", b"3", bytes([2, 3, 4, 5, 0, 1, 2, 3, 5, 5, 4, 4]))
header_value = st.one_of(st.integers(-3, 10**20).map(lambda i: str(i).encode()),
                         st.binary(max_size=6))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("shard-fuzz")


class TestShards:
    @given(st.one_of(st.binary(max_size=120), mutated(VALID_SHARD),
                     st.builds(shard_bytes, header_value, header_value,
                               st.binary(max_size=24))))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_read_or_raise_named_error(self, fuzz_dir, data):
        path = fuzz_dir / "fuzz.tokens"
        path.write_bytes(data)
        try:
            ids = T.read_shard(path)
        except ShardFormatError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert ids.dtype == np.uint8 and ids.ndim == 2
            assert ids.size == 0 or ids.max() < T.VOCAB_SIZE

    def test_no_windows_of_a_length_numpy_cannot_allocate(self, tmp_path):
        path = tmp_path / "x.tokens"
        path.write_bytes(shard_bytes(str(2**63).encode(), b"0", b""))
        with pytest.raises(ShardFormatError, match=f"window_len={2**63} n_windows=0"):
            T.read_shard(path)

    def test_round_trip(self, tmp_path, rng):
        ids = rng.integers(0, 6, size=(17, 64)).astype(np.uint8)
        path = tmp_path / "x.tokens"
        T.write_shard(path, ids)
        back = T.read_shard(path)
        assert np.array_equal(back, ids)

    def test_header_is_single_ascii_line(self, tmp_path):
        path = tmp_path / "x.tokens"
        T.write_shard(path, np.zeros((2, 8), dtype=np.uint8))
        first = open(path, "rb").readline().decode("ascii")
        assert first.startswith("GENELM-TOKENS v1 ")
        assert "window_len=8" in first and "n_windows=2" in first
        assert "vocab=PAD,UNK,A,C,G,T" in first

    def test_byte_identical_rewrites(self, tmp_path, rng):
        ids = rng.integers(0, 6, size=(5, 32)).astype(np.uint8)
        a, b = tmp_path / "a.tokens", tmp_path / "b.tokens"
        T.write_shard(a, ids)
        T.write_shard(b, ids)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "x.tokens"
        T.write_shard(path, np.zeros((4, 16), dtype=np.uint8))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ShardFormatError):
            T.read_shard(path)

    @pytest.mark.parametrize("n_windows, payload", [(4, 65), (10**15, 64)])
    def test_payload_size_must_match_header(self, tmp_path, n_windows, payload):
        # checked against the file size before the reader allocates anything
        path = tmp_path / "x.tokens"
        header = f"{T.SHARD_MAGIC} vocab={','.join(T.SYMBOLS)} window_len=16 " \
                 f"n_windows={n_windows}\n"
        path.write_bytes(header.encode() + bytes(payload))
        with pytest.raises(ShardFormatError, match=f"payload is {payload} bytes"):
            T.read_shard(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.tokens"
        path.write_bytes(b"SOMETHING ELSE v9\n\x00\x01")
        with pytest.raises(ShardFormatError):
            T.read_shard(path)

    def test_out_of_vocab_id_rejected(self, tmp_path):
        path = tmp_path / "x.tokens"
        ids = np.full((1, 4), 9, dtype=np.uint8)
        header = f"{T.SHARD_MAGIC} vocab={','.join(T.SYMBOLS)} window_len=4 n_windows=1\n"
        path.write_bytes(header.encode() + ids.tobytes())
        with pytest.raises(ShardFormatError):
            T.read_shard(path)

    @pytest.mark.parametrize("window_len,n_windows,payload", [
        (-2, -3, 6), (0, 5, 0), (0, 0, 0), (4, -1, 0)])
    def test_nonpositive_header_sizes_rejected(self, tmp_path, window_len,
                                               n_windows, payload):
        path = tmp_path / "x.tokens"
        header = (f"{T.SHARD_MAGIC} vocab={','.join(T.SYMBOLS)} "
                  f"window_len={window_len} n_windows={n_windows}\n")
        path.write_bytes(header.encode() + bytes(payload))
        with pytest.raises(ShardFormatError, match="window_len"):
            T.read_shard(path)

    def test_encode_windows_shape(self):
        ids = T.encode_windows(["ACGT", "TTTT"])
        assert ids.shape == (2, 4) and ids.dtype == np.uint8
