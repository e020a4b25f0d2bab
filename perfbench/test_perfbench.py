"""Self-tests of the benchmark: its float64 reference agrees with the
program, and every output check rejects a deliberately perturbed output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks as C  # noqa: E402
import inputs as I  # noqa: E402
import reference as R  # noqa: E402
from genelm import downstream as D, evaluator as E, genome_io as G  # noqa: E402
from genelm import tokenizer as T, trainer as TR  # noqa: E402
from genelm.model import ModelConfig  # noqa: E402

TINY = ModelConfig(hidden=32, n_layers=2, n_heads=2, ffn_dim=48, max_seq_len=64,
                   rope_base=500.0)
P = I.transition_matrix(0, 2, 2.0)
GENOME = {"record_bp": [3000, 2000], "lower_per_mbp": 2000, "n_per_mbp": 300}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny model trained a few steps at a high rate, so every tensor,
    gains included, is away from its initial value."""
    data = np.random.default_rng(0).integers(1, 6, size=(16, 64)).astype(np.uint8)
    ckpt, _ = TR.train_stage(TINY, TR.TrainConfig(batch_size=4, total_iters=4,
                                                  warmup_iters=1, lr_peak=3e-2), data)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    TR.save_checkpoint(ckpt, path)
    cfg, params = R.read_checkpoint(path)
    return ckpt, cfg, params


@pytest.mark.parametrize("tie", [False, True])
def test_reference_matches_program_logits(tiny, tmp_path, tie):
    ckpt = tiny[0]
    if tie:
        ckpt = replace(ckpt, model_config=replace(TINY, tie_embeddings=True),
                       params={n: a for n, a in ckpt.params.items() if n != "lm_head"})
    TR.save_checkpoint(ckpt, tmp_path / "m.ckpt")
    cfg, params = R.read_checkpoint(tmp_path / "m.ckpt")
    ids = np.random.default_rng(1).integers(1, 6, size=(3, 64))
    got = ckpt.build_model().logits(ids)
    ref, _ = R.forward(cfg, params, ids)
    assert np.abs(ref - got).max() < 1e-5 * max(1.0, np.abs(ref).max())


def _records():
    return I.make_genome(3, P, GENOME)


def test_shards_check(tmp_path):
    records = _records()
    I.write_fasta(tmp_path / "g.fa", records, [60, 61])
    ws = G.extract_windows(G.parse_fasta(tmp_path / "g.fa"), 64)
    train, held = G.split_train_eval(ws, 0.2, 0)
    a, b = T.encode_windows(train.windows), T.encode_windows(held.windows)
    want = I.windows(records, 64)
    assert len(want) < sum(len(r[1]) for r in records) // 64  # some were dropped
    assert C.shards(a, b, want) == []
    bad = a.copy()
    bad[0, 5] = 2 + (bad[0, 5] - 1) % 4
    assert C.shards(bad, b, want)
    assert C.shards(a[1:], b, want)


def test_loss_checks():
    assert C.losses([1.8, 1.5, 1.3], 0.9, True) == []
    assert C.losses([1.8, float("nan"), 1.3], 0.9, True)
    assert C.losses([1.3, 1.5, 1.8], 0.9, True)
    assert C.losses([1.8, 1.5, 0.8], 0.9, True)


def test_roundtrip_and_rope_checks():
    assert C.roundtrip(b"abc", b"abc") == []
    assert C.roundtrip(b"abc", b"abd")
    assert C.rope_bases([1e4, 1.6e5, 6.4e5], [512, 2048, 4096]) == []
    assert C.rope_bases([1e4, 1.6e5, 3.2e5], [512, 2048, 4096])


def test_scores_check(tiny):
    ckpt, cfg, params = tiny
    seqs = list(I.windows(_records(), 64)[:4])
    got = E.corpus_stats(ckpt.build_model(), seqs)
    ref = R.score(cfg, params, seqs)
    assert C.scores(got, ref, "t") == []
    assert C.scores((got[0] * (1 + 1e-3), got[1], got[2]), ref, "t")
    assert C.scores((got[0], got[1] + 1, got[2]), ref, "t")
    assert C.scores((got[0], got[1], got[2] + 5), ref, "t")


def test_sweep_check(tiny):
    ckpt, cfg, params = tiny
    pure = I.make_genome(3, P, dict(GENOME, n_per_mbp=0))  # every target scored
    fasta = [G.FastaRecord(h, s.tobytes().decode().upper()) for h, s in pure]
    report = E.length_sweep([("m", ckpt.build_model())], fasta, [16, 64], max_sequences=5)
    rows = [vars(r) for r in report.rows]
    ref = {n: R.score(cfg, params, I.windows(pure, n)[:5]) for n in (16, 64)}
    counts = {16: 5, 64: 5}
    assert C.sweep_rows(rows, ref, counts) == []
    nll = rows[1]["mean_nll"] * 1.001
    for i, change in ((0, {"ppl": rows[0]["ppl"] * 1.001}), (0, {"n_scored_tokens": 1}),
                      (1, {"mean_nll": nll, "ppl": math.exp(nll)}), (1, {"n_sequences": 4})):
        bad = [dict(r) for r in rows]
        bad[i].update(change)
        assert C.sweep_rows(bad, ref, counts), change


def test_embeddings_check(tiny):
    ckpt, cfg, params = tiny
    seqs = I.sequences(0, P, [40, 64, 150])  # the last one is cut into chunks
    got = D.embed_dataset(ckpt.build_model(), seqs)
    ref = R.embeddings(cfg, params, [I.encode(np.frombuffer(s.encode(), np.uint8))
                                     for s in seqs])
    assert C.embeddings(got, ref) == []
    bad = got.copy()
    bad[2, 0] += 1e-2
    assert C.embeddings(bad, ref)
    assert C.embeddings(got[:2], ref)


def test_entropy_rate_of_context_free_chains():
    assert math.isclose(I.entropy_rate(np.full((1, 4), 0.25)), math.log(4))
    q = np.array([0.7, 0.1, 0.1, 0.1])
    assert math.isclose(I.entropy_rate(np.tile(q, (16, 1))), float(-(q * np.log(q)).sum()))
