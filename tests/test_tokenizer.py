import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genelm import tokenizer as T
from genelm.errors import ShardFormatError


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

    def test_decode(self):
        assert T.decode([2, 3, 4, 5]) == "ACGT"
        assert T.decode([1]) == "N"
        assert T.decode([0, 2]) == "A"

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            T.decode([6])
        with pytest.raises(ValueError):
            T.decode([-1])

    @given(st.text(alphabet="ACGT", min_size=0, max_size=500))
    def test_round_trip(self, s):
        assert T.decode(T.encode(s)) == s

    @given(st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90),
                   min_size=0, max_size=300))
    def test_length_preserved_and_ids_in_range(self, s):
        ids = T.encode(s)
        assert len(ids) == len(s)
        if len(ids):
            assert ids.max() < T.VOCAB_SIZE
            assert ids.min() >= 0


class TestShards:
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
