import math

import numpy as np
import pytest

from genelm import evaluator as E
from genelm import kernels as K
from genelm import genome_io as G
from genelm import tokenizer as T
from genelm.errors import ContextOverflowError
from genelm.model import LanguageModel, ModelConfig


class StubModel:
    """Evaluation-protocol stub: fixed logits for every position."""

    def __init__(self, row, max_seq_len=4096):
        self.row = np.asarray(row, dtype=np.float64)
        self.max_seq_len = max_seq_len

    def logits(self, ids):
        return np.tile(self.row, (len(ids), 1))


def uniform_over_bases():
    # equal mass on A,C,G,T; PAD/UNK effectively impossible
    return StubModel([-1e30, -1e30, 0.0, 0.0, 0.0, 0.0])


class MemorizingStub:
    """Puts +30 logits on the true next token (needs the sequence)."""

    max_seq_len = 4096

    def __init__(self, ids):
        self.ids = np.asarray(ids)

    def logits(self, ids):
        out = np.zeros((len(ids), 6))
        out[np.arange(len(ids) - 1), self.ids[1:]] = 30.0
        return out


class TestPerplexity:
    def test_uniform_logit_model_ppl_4(self, rng):
        seqs = [rng.integers(2, 6, size=100) for _ in range(20)]
        ppl, mean_nll = E.perplexity(uniform_over_bases(), seqs)
        assert abs(ppl - 4.0) < 1e-6
        assert abs(mean_nll - math.log(4)) < 1e-9

    def test_masked_targets_do_not_contribute(self, rng):
        seq = rng.integers(2, 6, size=60)
        seq[10:20] = T.UNK_ID
        seq[30:35] = T.PAD_ID
        ppl, _ = E.perplexity(uniform_over_bases(), [seq])
        assert abs(ppl - 4.0) < 1e-6

    def test_exp_log_identity(self, rng):
        model = LanguageModel.init(
            ModelConfig(hidden=16, n_layers=1, n_heads=2, ffn_dim=24,
                        max_seq_len=64), seed=0)
        seqs = [rng.integers(2, 6, size=40) for _ in range(5)]
        ppl, mean_nll = E.perplexity(model, seqs)
        assert abs(ppl - math.exp(mean_nll)) < 1e-9 * ppl

    def test_memorizing_model_approaches_one(self, rng):
        ids = rng.integers(2, 6, size=200)
        ppl, _ = E.perplexity(MemorizingStub(ids), [ids])
        assert ppl < 1.05

    def test_pooling_matches_bruteforce(self, rng):
        # oracle: recompute every position's NLL one sequence at a time
        model = LanguageModel.init(
            ModelConfig(hidden=16, n_layers=1, n_heads=2, ffn_dim=24,
                        max_seq_len=32), seed=1)
        seqs = [rng.integers(0, 6, size=int(rng.integers(8, 30)))
                for _ in range(6)]
        nlls = []
        for s in seqs:
            logits = np.asarray(model.logits(s), dtype=np.float64)
            for i in range(len(s) - 1):
                target = s[i + 1]
                if target < 2:
                    continue
                row = logits[i]
                logp = row - (row.max() + math.log(np.exp(row - row.max()).sum()))
                nlls.append(-logp[target])
        want = math.exp(sum(nlls) / len(nlls))
        got, _ = E.perplexity(model, seqs)
        assert abs(got - want) < 1e-9 * want

    def test_adding_worse_sequence_increases_ppl(self, rng):
        good = rng.integers(2, 6, size=100)
        stub = MemorizingStub(good)

        class Mixed:
            max_seq_len = 4096

            def logits(self, ids):
                if np.array_equal(ids, good):
                    return stub.logits(ids)
                return np.zeros((len(ids), 6))  # uniform over 6: worse

        ppl_one, _ = E.perplexity(Mixed(), [good])
        ppl_two, _ = E.perplexity(Mixed(), [good, rng.integers(2, 6, size=100)])
        assert ppl_two > ppl_one

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            E.perplexity(uniform_over_bases(), [np.array([2])])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            E.perplexity(uniform_over_bases(), [])

    def test_context_overflow(self, rng):
        stub = uniform_over_bases()
        stub.max_seq_len = 16
        with pytest.raises(ContextOverflowError):
            E.perplexity(stub, [rng.integers(2, 6, size=17)])

    def test_per_sequence_stats_consistent_with_pooled(self, rng):
        model = LanguageModel.init(
            ModelConfig(hidden=16, n_layers=1, n_heads=2, ffn_dim=24,
                        max_seq_len=32), seed=2)
        seqs = [rng.integers(2, 6, size=20) for _ in range(4)]
        rows = E.per_sequence_stats(model, seqs)
        assert [r["index"] for r in rows] == [0, 1, 2, 3]
        pooled_nll = (sum(r["mean_nll"] * r["n_scored"] for r in rows)
                      / sum(r["n_scored"] for r in rows))
        _, mean_nll = E.perplexity(model, seqs)
        assert abs(pooled_nll - mean_nll) < 1e-12


class TestScoringRule:
    def test_next_token_targets_masks_last_and_pad_unk(self, rng):
        batch = rng.integers(2, 6, size=(3, 20))
        batch[0, 5] = T.PAD_ID
        batch[1, 7:10] = T.UNK_ID
        batch[2, 0] = T.UNK_ID  # a PAD/UNK input is still scored as context
        targets, mask = T.next_token_targets(batch)
        assert np.array_equal(targets[:, :-1], batch[:, 1:])
        want = np.ones(batch.shape, dtype=bool)
        want[:, -1] = False
        want[0, 4] = False
        want[1, 6:9] = False
        assert np.array_equal(mask, want)

    def test_training_loss_equals_mean_score_nll(self, rng):
        model = LanguageModel.init(
            ModelConfig(hidden=16, n_layers=1, n_heads=2, ffn_dim=24,
                        max_seq_len=32), seed=4)
        batch = rng.integers(2, 6, size=(3, 24))
        batch[0, 3] = T.PAD_ID
        batch[2, 10:14] = T.UNK_ID
        loss = K.cross_entropy(model.forward(batch), *T.next_token_targets(batch))
        rows = [E.score(model, ids) for ids in batch]
        assert np.array_equal(np.stack([m for _, _, m in rows]),
                              T.next_token_targets(batch)[1])
        nll = np.concatenate([n[m] for n, _, m in rows])
        assert abs(float(loss.data) - nll.mean()) < 1e-5


class TestReconstructionAccuracy:
    def test_memorizing_model(self, rng):
        ids = rng.integers(2, 6, size=300)
        assert E.reconstruction_accuracy(MemorizingStub(ids), [ids]) > 0.99

    def test_uniform_model_chance_level(self, rng):
        # ties broken toward the lowest id: the model always predicts 'A',
        # so accuracy is the empirical frequency of A targets (~0.25)
        seqs = [rng.integers(2, 6, size=501) for _ in range(30)]
        acc = E.reconstruction_accuracy(uniform_over_bases(), seqs)
        assert abs(acc - 0.25) < 0.02

    def test_tie_break_is_lowest_id(self):
        seq = np.array([2, 2, 2, 2, 2])  # all 'A'
        acc = E.reconstruction_accuracy(uniform_over_bases(), [seq])
        assert acc == 1.0


class TestLengthSweep:
    def make_model(self, max_len=64):
        return LanguageModel.init(
            ModelConfig(hidden=16, n_layers=1, n_heads=2, ffn_dim=24,
                        max_seq_len=max_len), seed=0)

    def test_single_cell_matches_direct_call(self):
        model = self.make_model()
        rec = G.generate_synthetic_genome(3, 4000, 1, 2.0)
        report = E.length_sweep([("m", model)], [rec], [32])
        row = report.rows[0]
        ws = G.extract_windows([rec], 32)
        seqs = [T.encode(w) for w in ws.windows]
        ppl, mean_nll = E.perplexity(model, seqs)
        assert row.ppl == ppl and row.mean_nll == mean_nll
        assert row.recon_acc == E.reconstruction_accuracy(model, seqs)
        assert row.n_sequences == len(seqs)

    def test_cross_product_with_unsupported(self):
        models = [("short", self.make_model(32)), ("long", self.make_model(128))]
        rec = G.generate_synthetic_genome(4, 6000, 0, 0.0)
        report = E.length_sweep(models, [rec], [16, 64])
        assert len(report.rows) == 4
        by_key = {(r.model_id, r.eval_length): r for r in report.rows}
        assert by_key[("short", 64)].supported is False
        assert by_key[("short", 64)].ppl is None
        assert by_key[("short", 16)].supported is True
        assert by_key[("long", 64)].ppl is not None

    def test_round_trip_csv_and_jsonl(self, tmp_path):
        model = self.make_model()
        rec = G.generate_synthetic_genome(5, 3000, 0, 0.0)
        report = E.length_sweep([("m", model), ("n", self.make_model(16))],
                                [rec], [8, 32])
        csv_path, jsonl_path = tmp_path / "r.csv", tmp_path / "r.jsonl"
        report.write_csv(csv_path)
        report.write_jsonl(jsonl_path)
        back_csv = E.PerplexityReport.read_csv(csv_path)
        for a, b in zip(report.rows, back_csv.rows):
            assert (a.model_id, a.eval_length, a.ppl, a.recon_acc,
                    a.n_sequences, a.n_scored_tokens, a.supported) == \
                   (b.model_id, b.eval_length, b.ppl, b.recon_acc,
                    b.n_sequences, b.n_scored_tokens, b.supported)
        back_jsonl = E.PerplexityReport.read_jsonl(jsonl_path)
        assert back_jsonl == report

    def test_csv_header_fixed(self, tmp_path):
        report = E.PerplexityReport([E.ReportRow("m", 8, 4.0, 0.25, 1, 7, 1.38)])
        path = tmp_path / "h.csv"
        report.write_csv(path)
        assert path.read_text().splitlines()[0] == \
            "model_id,eval_length,ppl,recon_acc,n_sequences,n_scored_tokens"
