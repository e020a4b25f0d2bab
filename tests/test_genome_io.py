import gzip
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genelm import genome_io as G
from genelm.errors import MalformedFastaError


def parse_bytes(data: bytes):
    return G.parse_fasta(io.BytesIO(data))


# ---------------------------------------------------------------------------
# oracles: the straightforward line-by-line implementations that the
# vectorised parser and windowing must reproduce exactly
# ---------------------------------------------------------------------------

def oracle_parse_fasta(data: bytes) -> list[G.FastaRecord]:
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="")
    records, header, parts = [], None, []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                records.append(G.FastaRecord(header, "".join(parts)))
            header = line[1:].strip()
            if not header:
                raise MalformedFastaError("empty header", lineno)
            parts = []
        else:
            if header is None:
                raise MalformedFastaError("sequence data before any '>' header", lineno)
            if not line.isascii() or not line.isalpha():
                bad = next(ch for ch in line if not (ch.isascii() and ch.isalpha()))
                raise MalformedFastaError(f"invalid character {bad!r} in sequence", lineno)
            parts.append(line.upper())
    if header is not None:
        records.append(G.FastaRecord(header, "".join(parts)))
    return records


def oracle_extract_windows(records, window_len, max_ambiguous_fraction):
    stats = G.SourceStats()
    windows, origins = [], []
    for rec in records:
        seq = rec.sequence
        stats.total_bp_read += len(seq)
        for start in range(0, len(seq) - window_len + 1, window_len):
            w = seq[start:start + window_len]
            ambiguous = len(w) - sum(w.count(b) for b in "ACGT")
            if ambiguous / window_len > max_ambiguous_fraction:
                stats.windows_dropped_ambiguous += 1
                continue
            windows.append(w)
            origins.append((rec.header, start))
    stats.windows_kept = len(windows)
    return G.WindowSet(windows, window_len, stats, origins)


def outcome(parse, data):
    """A parse's records, or the class, line number and message it raised."""
    try:
        return parse(data)
    except MalformedFastaError as exc:
        return type(exc), exc.line_number, str(exc)


RUN_ALPHABETS = ["ACGT", "acgt", "N", "n", "RYKMSWBDHVrykmswbdhv"]
BAD_ASCII = "09-*. \t>@[`{\x00\x7f"


@st.composite
def sequence_runs(draw, max_runs=6):
    """Lowercase runs, IUPAC letters and N runs over a base background."""
    runs = draw(st.lists(st.tuples(st.sampled_from(RUN_ALPHABETS), st.integers(0, 40)),
                         max_size=max_runs))
    return "".join(draw(st.text(alphabet=a, min_size=n, max_size=n)) for a, n in runs)


@st.composite
def fasta_text(draw):
    """FASTA with \\n, \\r\\n and lone \\r line ends, blank lines, wrapped
    records, headers with spaces and '>', and now and then a malformed line."""
    def rarely():
        return draw(st.sampled_from([False] * 9 + [True]))

    lines = []
    if rarely():
        lines.append(draw(sequence_runs(2)) or "A")  # data before any header
    for _ in range(draw(st.integers(0, 4))):
        if rarely():
            header = draw(st.sampled_from(["", " ", "\t "]))  # empty
        else:
            header = (draw(st.sampled_from(["", " ", "\t"]))
                      + draw(st.text(alphabet="chr1>|=_.ab", min_size=1, max_size=8))
                      + draw(st.sampled_from(["", " x y", "\t>z ", " "])))
        lines.append(">" + header)
        seq = draw(sequence_runs())
        width = draw(st.integers(1, 30))
        lines.extend(seq[i:i + width] for i in range(0, len(seq), width))
    if lines and draw(st.sampled_from([False] * 3 + [True])):
        at = draw(st.integers(0, len(lines) - 1))
        pos = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:pos] + draw(st.sampled_from(BAD_ASCII)) + lines[at][pos:]
    out = []
    for line in lines:
        for _ in range(draw(st.integers(0, 3)) // 3):
            out.append(draw(st.sampled_from(["\n", "\r\n", "\r"])))  # blank line
        out.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if out and draw(st.booleans()):
        out[-1] = out[-1].rstrip("\r\n")
    return "".join(out).encode("ascii")


class TestParseFasta:
    def test_concatenates_and_uppercases(self):
        recs = parse_bytes(b">chr1\nACGT\nacgt\n")
        assert recs == [G.FastaRecord("chr1", "ACGTACGT")]

    def test_empty_stream(self):
        assert parse_bytes(b"") == []

    def test_two_records(self):
        recs = parse_bytes(b">a\nACG\n>b\nTT\n")
        assert [(r.header, r.sequence) for r in recs] == [("a", "ACG"), ("b", "TT")]

    def test_data_before_header(self):
        with pytest.raises(MalformedFastaError) as exc:
            parse_bytes(b"ACGT\n>a\nACG\n")
        assert exc.value.line_number == 1

    def test_bad_character_names_line(self):
        with pytest.raises(MalformedFastaError) as exc:
            parse_bytes(b">a\nACGT\nAC9T\n")
        assert exc.value.line_number == 3
        assert "9" in str(exc.value)

    def test_gt_inside_sequence_line_is_invalid(self):
        with pytest.raises(MalformedFastaError, match="'>'") as exc:
            parse_bytes(b">a>b\nAC>GT\n")
        assert exc.value.line_number == 2

    def test_empty_header(self):
        with pytest.raises(MalformedFastaError):
            parse_bytes(b">\nACGT\n")

    def test_iupac_letters_kept(self):
        recs = parse_bytes(b">a\nACGTNRY\n")
        assert recs[0].sequence == "ACGTNRY"

    def test_gzip_path(self, tmp_path):
        path = tmp_path / "x.fa.gz"
        with gzip.open(path, "wt") as f:
            f.write(">g\nAAcc\nGGtt\n")
        recs = G.parse_fasta(path)
        assert recs == [G.FastaRecord("g", "AACCGGTT")]

    def test_blank_lines_skipped(self):
        recs = parse_bytes(b">a\nAC\n\nGT\n")
        assert recs[0].sequence == "ACGT"

    def test_line_ends_cr_crlf_lf_equivalent(self):
        want = [G.FastaRecord("a b", "ACGTNN"), G.FastaRecord("c", "TT")]
        for end in (b"\n", b"\r\n", b"\r"):
            data = end.join([b">a b", b"acgt", b"", b"nN", b">c", b"TT"]) + end
            assert parse_bytes(data) == want, end

    @pytest.mark.parametrize("how", ["path", "binary"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, how):
        data = ">r1\nACGT\nACGT\xc3\xa9AC\n".encode("latin-1")
        if how == "path":
            source = tmp_path / "x.fa"
            source.write_bytes(data)
        else:
            source = io.BytesIO(data)
        with pytest.raises(MalformedFastaError) as exc:
            G.parse_fasta(source)
        assert exc.value.line_number == 3
        assert "0xc3" in str(exc.value)

    def test_non_ascii_header_byte_names_its_line(self):
        with pytest.raises(MalformedFastaError, match="header") as exc:
            parse_bytes(b">a\nAC\n>b\xff\nGT\n")
        assert exc.value.line_number == 3

    @given(fasta_text(), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_matches_line_by_line_oracle(self, data, chunk):
        # a tiny read size puts chunk seams inside lines and line ends
        want = outcome(oracle_parse_fasta, data)
        with mock.patch.object(G, "_CHUNK", chunk):
            assert outcome(parse_bytes, data) == want
        assert outcome(parse_bytes, data) == want

    @given(st.binary(max_size=200), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_parse_or_raise_malformed(self, data, chunk):
        with mock.patch.object(G, "_CHUNK", chunk):
            try:
                records = parse_bytes(data)
            except MalformedFastaError as exc:
                assert exc.line_number >= 1
            else:
                for r in records:
                    assert r.header == r.header.strip() != ""
                    assert r.sequence == "" or (r.sequence.isascii() and r.sequence.isalpha()
                                                and r.sequence.isupper())

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_random_text_parse_or_raise_malformed(self, text):
        try:
            parse_bytes(text.encode("utf-8"))
        except MalformedFastaError:
            pass

    @given(st.lists(
        st.tuples(st.text(alphabet="abcXYZ01_", min_size=1, max_size=8),
                  st.text(alphabet="ACGTN", min_size=1, max_size=200)),
        min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_serialize_parse_round_trip(self, entries):
        records = [G.FastaRecord(h, s) for h, s in entries]
        text = G.serialize_fasta(records)
        back = G.parse_fasta(io.BytesIO(text.encode()))
        assert back == records


class TestExtractWindows:
    @given(st.lists(st.tuples(st.text(alphabet="chr12", min_size=1, max_size=4),
                              sequence_runs(8) | st.text(alphabet="ACGTNa-\u00e9", max_size=90)),
                    max_size=4),
           st.integers(1, 16), st.integers(0, 16), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_matches_window_by_window_oracle(self, entries, window_len, k, rows):
        # k / window_len puts the fraction exactly on a window's count
        records = [G.FastaRecord(h, s) for h, s in entries]
        for frac in {min(k / window_len, 1.0), 0.0, 1.0, 0.1}:
            want = oracle_extract_windows(records, window_len, frac)
            with mock.patch.object(G, "_COUNT_BYTES", rows * window_len):
                assert G.extract_windows(records, window_len, frac) == want
            assert G.extract_windows(records, window_len, frac) == want

    def test_non_overlapping_with_remainder_dropped(self):
        rec = G.FastaRecord("r", "ACGTACGTAC")  # length 10
        ws = G.extract_windows([rec], 4)
        assert ws.windows == ["ACGT", "ACGT"]
        assert ws.origins == [("r", 0), ("r", 4)]
        assert ws.source_stats.total_bp_read == 10
        assert ws.source_stats.windows_kept == 2

    def test_ambiguous_window_dropped(self):
        rec = G.FastaRecord("r", "NNNNACGT")
        ws = G.extract_windows([rec], 4, max_ambiguous_fraction=0.5)
        assert ws.windows == ["ACGT"]
        assert ws.source_stats.windows_dropped_ambiguous == 1

    def test_fraction_boundary_kept(self):
        # exactly at the threshold is kept; only strictly above drops
        rec = G.FastaRecord("r", "NNAC")
        ws = G.extract_windows([rec], 4, max_ambiguous_fraction=0.5)
        assert ws.windows == ["NNAC"]

    def test_zero_window_len_rejected(self):
        with pytest.raises(ValueError):
            G.extract_windows([], 0)

    def test_counts_match_independent_scan(self, rng):
        # oracle written as a straight line-by-line pass over the FASTA text
        records = []
        for i in range(5):
            n = int(rng.integers(50, 400))
            seq = "".join(rng.choice(list("ACGTN"), size=n, p=[0.23, 0.23, 0.23, 0.23, 0.08]))
            records.append(G.FastaRecord(f"r{i}", seq))
        text = G.serialize_fasta(records)
        w, frac = 37, 0.1

        kept = dropped = 0
        header, buf = None, ""

        def flush(buf):
            nonlocal kept, dropped
            for s in range(0, len(buf) - w + 1, w):
                window = buf[s:s + w]
                bad = sum(1 for ch in window if ch not in "ACGT")
                if bad / w > frac:
                    dropped += 1
                else:
                    kept += 1

        for line in text.splitlines():
            if line.startswith(">"):
                if header is not None:
                    flush(buf)
                header, buf = line, ""
            else:
                buf += line.upper()
        flush(buf)

        ws = G.extract_windows(records, w, frac)
        assert ws.source_stats.windows_kept == kept
        assert ws.source_stats.windows_dropped_ambiguous == dropped

    @given(st.integers(1, 30), st.integers(0, 300))
    @settings(max_examples=50)
    def test_every_window_exact_length(self, w, n):
        rec = G.FastaRecord("r", "ACGT" * ((n // 4) + 1))
        rec = G.FastaRecord("r", rec.sequence[:n])
        if n == 0:
            rec = G.FastaRecord("r", "")
        ws = G.extract_windows([rec], w)
        assert all(len(x) == w for x in ws.windows)
        assert len(ws.windows) == n // w


class TestSplits:
    def test_fraction_arithmetic(self):
        rec = G.generate_synthetic_genome(0, 4000)
        ws = G.extract_windows([rec], 4)
        assert len(ws) == 1000
        train, evalset = G.split_train_eval(ws, 0.01, seed=5)
        assert (len(train), len(evalset)) == (990, 10)

    def test_zero_fraction(self):
        ws = G.extract_windows([G.FastaRecord("r", "ACGT" * 10)], 4)
        train, evalset = G.split_train_eval(ws, 0.0, seed=1)
        assert len(evalset) == 0 and len(train) == 10

    def test_deterministic(self):
        ws = G.extract_windows([G.generate_synthetic_genome(3, 2000)], 8)
        a = G.split_train_eval(ws, 0.25, seed=7)
        b = G.split_train_eval(ws, 0.25, seed=7)
        assert a[0].windows == b[0].windows and a[1].windows == b[1].windows

    def test_partition_no_overlap(self):
        ws = G.extract_windows([G.generate_synthetic_genome(4, 3000, 1, 2.0)], 16)
        train, evalset = G.split_train_eval(ws, 0.3, seed=2)
        assert len(train) + len(evalset) == len(ws)
        assert sorted(train.windows + evalset.windows) == sorted(ws.windows)
        assert set(train.origins).isdisjoint(evalset.origins)

    def test_split_by_source(self):
        recs = [G.FastaRecord("chr1", "ACGT" * 8), G.FastaRecord("chr2", "TTTT" * 8)]
        ws = G.extract_windows(recs, 4)
        train, evalset = G.split_by_source(ws, ["chr2"])
        assert {h for h, _ in train.origins} == {"chr1"}
        assert {h for h, _ in evalset.origins} == {"chr2"}

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        ws = G.extract_windows([G.FastaRecord("r", "ACGT" * 10)], 4)
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            G.split_train_eval(ws, 0.5, seed=seed)


class TestSyntheticGenome:
    def test_uniform_base_frequencies(self):
        rec = G.generate_synthetic_genome(9, 10 ** 6, markov_order=0, sharpness=0.0)
        counts = {b: rec.sequence.count(b) for b in "ACGT"}
        assert sum(counts.values()) == 10 ** 6
        for b, c in counts.items():
            assert abs(c / 10 ** 6 - 0.25) < 0.005, (b, c)

    def test_deterministic(self):
        a = G.generate_synthetic_genome(5, 5000, 2, 3.0)
        b = G.generate_synthetic_genome(5, 5000, 2, 3.0)
        assert a.sequence == b.sequence

    def test_entropy_rate_matches_chain(self):
        # oracle: stationary entropy rate computed from the transition matrix
        order, sharp, seed, n = 2, 4.0, 33, 300_000
        rows = G.markov_chain(seed, order, sharp)
        n_ctx = rows.shape[0]
        # full state transition: context c emits b -> context (4c+b) mod n_ctx
        P = np.zeros((n_ctx, n_ctx))
        for c in range(n_ctx):
            for b in range(4):
                P[c, (c * 4 + b) % n_ctx] += rows[c, b]
        pi = np.full(n_ctx, 1.0 / n_ctx)
        for _ in range(500):
            pi = pi @ P
        pi /= pi.sum()
        row_entropy = -np.sum(rows * np.log2(np.clip(rows, 1e-300, None)), axis=1)
        h_true = float(pi @ row_entropy)

        seq = G.generate_synthetic_genome(seed, n, order, sharp).sequence
        ids = np.frombuffer(seq.encode(), dtype=np.uint8)
        lut = np.zeros(256, dtype=np.int64)
        for i, b in enumerate("ACGT"):
            lut[ord(b)] = i
        ids = lut[ids]
        ctx = ids[:-2] * 4 + ids[1:-1]
        nxt = ids[2:]
        joint = np.zeros((n_ctx, 4))
        np.add.at(joint, (ctx, nxt), 1.0)
        p_ctx = joint.sum(axis=1)
        cond = joint / np.clip(p_ctx[:, None], 1, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_rows = -np.nansum(np.where(cond > 0, cond * np.log2(cond), 0.0), axis=1)
        h_emp = float((p_ctx / p_ctx.sum()) @ h_rows)
        assert abs(h_emp - h_true) < 0.02, (h_emp, h_true)

    def test_distinct_seeds_give_distinct_chains(self):
        # empirical order-2 transition matrices differ by TV > 0.1 on average
        def empirical(seed):
            seq = G.generate_synthetic_genome(seed, 120_000, 2, 4.0).sequence
            ids = np.array([{"A": 0, "C": 1, "G": 2, "T": 3}[c] for c in seq])
            ctx = ids[:-2] * 4 + ids[1:-1]
            joint = np.zeros((16, 4))
            np.add.at(joint, (ctx, ids[2:]), 1.0)
            return joint / np.clip(joint.sum(axis=1, keepdims=True), 1, None)

        pairs = [(41, 42), (42, 43), (43, 44)]
        for a, b in pairs:
            tv = 0.5 * np.abs(empirical(a) - empirical(b)).sum(axis=1).mean()
            assert tv > 0.1, (a, b, tv)

    def test_sharpness_zero_chain_is_uniform(self):
        rows = G.markov_chain(0, 2, 0.0)
        assert np.allclose(rows, 0.25)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            G.generate_synthetic_genome(0, 0)
        with pytest.raises(ValueError):
            G.generate_synthetic_genome(0, 10, markov_order=-1)
        with pytest.raises(ValueError):
            G.generate_synthetic_genome(0, 10, sharpness=-0.5)
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            G.generate_synthetic_genome(-1, 10)

    @pytest.mark.parametrize("sharpness", [math.nan, math.inf, -math.inf])
    def test_non_finite_sharpness_rejected(self, sharpness):
        # NaN passed a `< 0` check and inf gave NaN rows: a genome of all T
        with pytest.raises(ValueError, match="sharpness must be a finite number >= 0"):
            G.markov_chain(0, 1, sharpness)

    def test_sharpness_that_overflows_the_logits_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            G.markov_chain(0, 3, 1e308)
        # finite logits whose shift overflows still give valid rows
        rows = G.markov_chain(0, 0, 1e308)
        assert np.isfinite(rows).all() and np.allclose(rows.sum(axis=1), 1.0)


class TestPlantRepeats:
    def test_copies_appear_at_lag(self):
        seq = G.generate_synthetic_genome(1, 4000, 0, 0.0).sequence
        planted = G.plant_repeats(seq, lag=100, motif_len=30, period=200)
        for pos in range(100, 3900, 200):
            assert planted[pos:pos + 30] == planted[pos - 100:pos - 100 + 30]

    def test_length_preserved(self):
        seq = G.generate_synthetic_genome(2, 1037, 0, 0.0).sequence
        assert len(G.plant_repeats(seq, 64, 48, 96)) == 1037
