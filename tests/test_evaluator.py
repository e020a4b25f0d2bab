import json
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
        row = E.report_row("", 0, uniform_over_bases(), seqs)
        ppl, mean_nll = row.ppl, row.mean_nll
        assert abs(ppl - 4.0) < 1e-6
        assert abs(mean_nll - math.log(4)) < 1e-9

    def test_masked_targets_do_not_contribute(self, rng):
        seq = rng.integers(2, 6, size=60)
        seq[10:20] = T.UNK_ID
        seq[30:35] = T.PAD_ID
        ppl = E.report_row("", 0, uniform_over_bases(), [seq]).ppl
        assert abs(ppl - 4.0) < 1e-6

    def test_exp_log_identity(self, rng):
        model = LanguageModel.init(
            ModelConfig(hidden=16, n_layers=1, n_heads=2, ffn_dim=24,
                        max_seq_len=64), seed=0)
        seqs = [rng.integers(2, 6, size=40) for _ in range(5)]
        row = E.report_row("", 0, model, seqs)
        ppl, mean_nll = row.ppl, row.mean_nll
        assert abs(ppl - math.exp(mean_nll)) < 1e-9 * ppl

    def test_memorizing_model_approaches_one(self, rng):
        ids = rng.integers(2, 6, size=200)
        ppl = E.report_row("", 0, MemorizingStub(ids), [ids]).ppl
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
        got = E.report_row("", 0, model, seqs).ppl
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

        ppl_one = E.report_row("", 0, Mixed(), [good]).ppl
        ppl_two = E.report_row("", 0, Mixed(), [good, rng.integers(2, 6, size=100)]).ppl
        assert ppl_two > ppl_one

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            E.report_row("", 0, uniform_over_bases(), [np.array([2])])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            E.report_row("", 0, uniform_over_bases(), [])

    def test_shard_array_scores_like_a_list(self, tmp_path, rng):
        ids = rng.integers(2, 6, size=(3, 20)).astype(np.uint8)
        T.write_shard(tmp_path / "s.tokens", ids)
        shard = T.read_shard(tmp_path / "s.tokens")
        model = uniform_over_bases()
        assert E.corpus_stats(model, shard) == E.corpus_stats(model, list(shard))
        with pytest.raises(ValueError, match="no sequences"):
            E.corpus_stats(model, shard[:0])

    def test_context_overflow(self, rng):
        stub = uniform_over_bases()
        stub.max_seq_len = 16
        with pytest.raises(ContextOverflowError):
            E.report_row("", 0, stub, [rng.integers(2, 6, size=17)])

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
        assert E.report_row("", 0, MemorizingStub(ids), [ids]).recon_acc > 0.99

    def test_uniform_model_chance_level(self, rng):
        # ties broken toward the lowest id: the model always predicts 'A',
        # so accuracy is the empirical frequency of A targets (~0.25)
        seqs = [rng.integers(2, 6, size=501) for _ in range(30)]
        acc = E.report_row("", 0, uniform_over_bases(), seqs).recon_acc
        assert abs(acc - 0.25) < 0.02

    def test_tie_break_is_lowest_id(self):
        seq = np.array([2, 2, 2, 2, 2])  # all 'A'
        acc = E.report_row("", 0, uniform_over_bases(), [seq]).recon_acc
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
        direct = E.report_row("", 0, model, seqs)
        assert row.ppl == direct.ppl and row.mean_nll == direct.mean_nll
        assert row.recon_acc == direct.recon_acc
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

    def test_length_no_record_reaches_gives_a_row_of_no_sequences(self):
        model = self.make_model(64)
        rec = G.generate_synthetic_genome(5, 40, 0, 0.0)
        report = E.length_sweep([("m", model)], [rec], [16, 48, 128])
        by_length = {r.eval_length: r for r in report.rows}
        assert by_length[16].n_sequences > 0 and by_length[16].ppl is not None
        assert by_length[48] == E.ReportRow("m", 48, None, None, 0, 0, None, supported=True)
        assert by_length[128].supported is False

    def test_round_trip_csv_and_jsonl(self, tmp_path):
        report = E.PerplexityReport([
            E.ReportRow("m", 32, 3.75, 0.3125, 4, 124, 1.3217558399823195),
            E.ReportRow("n", 64, None, None, 2, 0, None, supported=False)])
        csv_path, jsonl_path = tmp_path / "r.csv", tmp_path / "r.jsonl"
        report.write_csv(csv_path)
        report.write_jsonl(jsonl_path)
        assert csv_path.read_text().splitlines() == [
            E.CSV_HEADER, "m,32,3.75,0.3125,4,124", "n,64,,,2,0"]
        assert [json.loads(line) for line in jsonl_path.read_text().splitlines()] == [
            {"model_id": "m", "eval_length": 32, "ppl": 3.75, "recon_acc": 0.3125,
             "n_sequences": 4, "n_scored_tokens": 124,
             "mean_nll": 1.3217558399823195, "supported": True},
            {"model_id": "n", "eval_length": 64, "ppl": None, "recon_acc": None,
             "n_sequences": 2, "n_scored_tokens": 0, "mean_nll": None,
             "supported": False}]

    def test_csv_header_fixed(self, tmp_path):
        report = E.PerplexityReport([E.ReportRow("m", 8, 4.0, 0.25, 1, 7, 1.38)])
        path = tmp_path / "h.csv"
        report.write_csv(path)
        assert path.read_text().splitlines()[0] == \
            "model_id,eval_length,ppl,recon_acc,n_sequences,n_scored_tokens"
