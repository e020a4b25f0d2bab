import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genelm import downstream as D
from genelm import kernels as K
from genelm import trainer as TR
from genelm.errors import DataConfigError
from genelm.model import LanguageModel, ModelConfig
from genelm.tokenizer import encode

CFG = ModelConfig(vocab_size=6, hidden=16, n_layers=2, n_heads=2,
                  ffn_dim=24, max_seq_len=32)


@pytest.fixture(scope="module")
def model():
    return LanguageModel.init(CFG, seed=7)


@pytest.fixture(scope="module")
def checkpoint(model):
    return TR.Checkpoint(
        CFG, TR.TrainConfig(),
        params={n: p.data.copy() for n, p in model.named_params().items()},
        moments=None, step=0, stage=0, data_seed=0)


def random_dna(rng, n):
    return "".join(rng.choice(list("ACGT"), size=n))


class ConstantHiddenStub:
    """Emits the same hidden vector at every position."""

    max_seq_len = 8

    def __init__(self, h):
        self.h = np.asarray(h, dtype=np.float32)

    def hidden(self, ids, layer=None):
        return np.tile(self.h, (len(ids), 1))


@pytest.fixture(scope="module")
def tsv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tsv")


@st.composite
def tsv_text(draw):
    """Labeled-TSV-like bytes: a header that is usually well formed, then
    rows whose sequences, tabs, targets and line ends vary."""
    kind = draw(st.sampled_from(["binary", "multiclass", "multilabel", "foo", ""]))
    k = draw(st.sampled_from(["2", "3", "0", "-1", "x", ""]))
    out = draw(st.sampled_from([f"task_kind={kind}\tk={k}", f"k={k}\ttask_kind={kind}",
                                f"task_kind={kind}"]))
    for _ in range(draw(st.integers(0, 5))):
        seq = draw(st.text(alphabet="ACGTNacg -\u00e9", max_size=6))
        target = draw(st.text(alphabet="0123,x -", max_size=6))
        tab = draw(st.sampled_from(["\t", "\t\t", "", " "]))
        out += draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n"])) + seq + tab + target
    return out.encode(draw(st.sampled_from(["ascii", "utf-8", "latin-1"])), "replace")


class TestEmbedSequence:
    def test_single_chunk_same_as_direct(self, model, rng):
        seq = random_dna(rng, 20)  # shorter than the 32-token context
        direct = model.hidden(encode(seq)).max(axis=0)
        emb = D.embed_sequence(model, seq, pooling="max")
        assert np.array_equal(emb, direct)

    def test_soft_masked_same_as_uppercase(self, model, rng):
        seq = random_dna(rng, 50)  # two chunks of the 32-token context
        soft = "".join(c.lower() if i % 3 else c for i, c in enumerate(seq))
        for pooling in ("max", "mean"):
            assert np.array_equal(D.embed_sequence(model, soft, pooling=pooling),
                                  D.embed_sequence(model, seq, pooling=pooling))

    def test_constant_hidden_model(self, rng):
        h = rng.standard_normal(5).astype(np.float32)
        stub = ConstantHiddenStub(h)
        for pooling in ("max", "mean"):
            emb = D.embed_sequence(stub, random_dna(rng, 20), pooling=pooling)
            assert np.allclose(emb, h, atol=1e-7)

    def test_two_chunk_average_matches_manual(self, model, rng):
        seq = random_dna(rng, 64)  # exactly 2 x context
        emb = D.embed_sequence(model, seq, pooling="max")
        e1 = D.embed_sequence(model, seq[:32], pooling="max")
        e2 = D.embed_sequence(model, seq[32:], pooling="max")
        assert np.array_equal(emb, np.mean(np.stack([e1, e2]), axis=0))

    def test_final_short_chunk_kept(self, model, rng):
        seq = random_dna(rng, 40)  # chunks of 32 and 8
        emb = D.embed_sequence(model, seq)
        e1 = D.embed_sequence(model, seq[:32])
        e2 = D.embed_sequence(model, seq[32:])
        assert np.array_equal(emb, np.mean(np.stack([e1, e2]), axis=0))

    def test_empty_rejected(self, model):
        with pytest.raises(ValueError):
            D.embed_sequence(model, "")

    def test_reversal_changes_embedding(self, model, rng):
        seq = random_dna(rng, 24)
        if seq == seq[::-1]:
            seq = "A" + seq[1:]
        a = D.embed_sequence(model, seq)
        b = D.embed_sequence(model, seq[::-1])
        assert not np.array_equal(a, b)

    def test_embed_dataset_order_and_nan_guard(self, model, rng):
        seqs = [random_dna(rng, 16) for _ in range(5)]
        X = D.embed_dataset(model, seqs)
        assert X.shape == (5, CFG.hidden)
        for i, s in enumerate(seqs):
            assert np.array_equal(X[i], D.embed_sequence(model, s))

    def test_layer_knob(self, model, rng):
        seq = random_dna(rng, 16)
        a = D.embed_sequence(model, seq)
        b = D.embed_sequence(model, seq, layer=0)
        assert not np.array_equal(a, b)


class TestProbe:
    def test_linearly_separable(self, rng):
        X = rng.standard_normal((400, 2)).astype(np.float32)
        margin = np.abs(X[:, 0] + 2 * X[:, 1]) / np.sqrt(5)
        X = X[margin > 0.15][:120]
        y = (X[:, 0] + 2 * X[:, 1] > 0).astype(int)
        rec = D.train_probe(X[:80], y[:80], X[80:], y[80:], n_classes=2)
        assert rec["f1_macro"] > 0.99

    def test_shuffled_labels_chance_band(self, rng):
        # 4 balanced classes, labels independent of features
        X = rng.standard_normal((400, 8)).astype(np.float32)
        y = np.tile(np.arange(4), 100)
        rng.shuffle(y)
        rec = D.train_probe(X[:300], y[:300], X[300:], y[300:], n_classes=4)
        assert 0.15 <= rec["f1_macro"] <= 0.35

    def test_single_class_rejected(self, rng):
        X = rng.standard_normal((10, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="degenerate"):
            D.train_probe(X, np.zeros(10, dtype=int), X, np.zeros(10, dtype=int))

    def test_multilabel_targets_rejected(self, rng):
        X = rng.standard_normal((20, 3)).astype(np.float32)
        y = rng.integers(0, 2, (20, 3))
        with pytest.raises(DataConfigError, match="one class per row.*finetune"):
            D.train_probe(X, y, X, y, n_classes=3)


class TestLabeledDatasetIO:
    def test_multiclass_round_trip(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("task_kind=multiclass\tk=3\nACGT\t2\nggcA\t0\n\nTTNA\t1\n")
        back = D.load_labeled_dataset(path)
        assert back.sequences == ["ACGT", "ggcA", "TTNA"]
        assert back.targets.tolist() == [2, 0, 1]
        assert back.task_kind == "multiclass" and back.n_classes == 3

    def test_multilabel_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("task_kind=multilabel\tk=3\r\nACGT\t0,1,1\r\nGGCC\t1,0,0\r\n")
        back = D.load_labeled_dataset(path)
        assert back.targets.tolist() == [[0, 1, 1], [1, 0, 0]]
        path.write_text("task_kind=multilabel\tk=3\n")
        assert D.load_labeled_dataset(path).targets.shape == (0, 3)

    def test_header_declares_task(self, tmp_path):
        path = tmp_path / "b.tsv"
        path.write_text("task_kind=binary\tk=2\nACGT\t1\n")
        back = D.load_labeled_dataset(path)
        assert back.task_kind == "binary" and back.n_classes == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("whatever\nACGT\t1\n")
        with pytest.raises(Exception):
            D.load_labeled_dataset(path)

    @pytest.mark.parametrize("text, line", [
        (b"task_kind=binary\tk=2\nACGT\t0\nACGT\tx\n", 3),
        (b"task_kind=binary\tk=2\nACGT\t\n", 2),
        (b"task_kind=binary\tk=2\nACGT\t2\n", 2),
        (b"task_kind=multilabel\tk=3\nACGT\t0,1,1\nACGT\t0,1\n", 3),
        (b"task_kind=multilabel\tk=2\nACGT\t0,2\n", 2),
        (b"task_kind=foo\tk=2\nACGT\t0\n", 1),
        (b"task_kind=binary\tk=3\nACGT\t0\n", 1),
        (b"task_kind=binary\tk=2\tname=\xc3\xa9\nACGT\t0\n", 1),
        (b"task_kind=binary\tk=2\nACGT\t0\nAC\xc3\xa9GT\t1\n", 3),
        (b"task_kind=binary\tk=2\nAC GT\t1\n", 2),
        (b"task_kind=binary\tk=2\nACGT\t1\t0\n", 2),
        (b"task_kind=binary\tk=2\nACGT\t1\t\n", 2),
        (b"task_kind=binary\tk=2\nACGT\t\xc3\xa9\n", 2),
    ])
    def test_malformed_line_named(self, tmp_path, text, line):
        path = tmp_path / "bad.tsv"
        path.write_bytes(text)
        with pytest.raises(DataConfigError, match=re.escape(f"{path}:{line}:")):
            D.load_labeled_dataset(path)

    @given(st.one_of(st.binary(max_size=120), tsv_text()))
    @settings(max_examples=300, deadline=None)
    def test_random_tsv_loads_or_names_error(self, tsv_dir, data):
        path = tsv_dir / "fuzz.tsv"
        path.write_bytes(data)
        try:
            ds = D.load_labeled_dataset(path)
        except DataConfigError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert len(ds.targets) == len(ds)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            D.LabeledDataset(["ACGT"], np.array([5]), "multiclass", 3)
        with pytest.raises(ValueError):
            D.LabeledDataset(["ACGT"], np.array([[2, 0]]), "multilabel", 2)
        with pytest.raises(ValueError):
            D.LabeledDataset(["ACGT"], np.array([0]), "binary", 3)


class TestFinetune:
    def small_task(self, rng, n_train=24, n_test=12):
        seqs, ys = [], []
        for i in range(n_train + n_test):
            label = i % 2
            # class 1 sequences are AT-rich, class 0 GC-rich: easy signal
            letters = "ATAT" if label else "GCGC"
            seqs.append("".join(rng.choice(list(letters + "ACGT"), size=20)))
            ys.append(label)
        train = D.LabeledDataset(seqs[:n_train], np.array(ys[:n_train]), "binary", 2)
        test = D.LabeledDataset(seqs[n_train:], np.array(ys[n_train:]), "binary", 2)
        return train, test

    def test_head_only_freezes_backbone(self, checkpoint, rng):
        train, test = self.small_task(rng)
        cfg = TR.finetune_config(6, batch_size=8, seed=0)
        _, tuned = D.finetune_classify(checkpoint, train, test, mode="head_only",
                                       config=cfg)
        for name, before in checkpoint.params.items():
            assert np.array_equal(tuned.params[name], before), name

    def test_all_layers_changes_backbone(self, checkpoint, rng):
        train, test = self.small_task(rng)
        cfg = TR.finetune_config(6, batch_size=8, seed=0)
        _, tuned = D.finetune_classify(checkpoint, train, test, mode="all_layers",
                                       config=cfg)
        changed = any(not np.array_equal(tuned.params[n], checkpoint.params[n])
                      for n in checkpoint.params)
        assert changed

    def test_metrics_record_fields(self, checkpoint, rng):
        train, test = self.small_task(rng)
        cfg = TR.finetune_config(6, batch_size=8)
        metrics, _ = D.finetune_classify(checkpoint, train, test, mode="head_only",
                                         config=cfg)
        want = {"task", "mode", "accuracy", "precision", "recall", "f1", "mcc",
                "auc_roc", "auc_pr", "median_auc", "n_train", "n_test", "steps"}
        assert want == set(metrics)
        assert metrics["task"] == "binary"
        assert metrics["median_auc"] is None

    def test_reported_metrics_are_the_trained_head_on_the_test_split(self, checkpoint,
                                                                     rng):
        train, _ = self.small_task(rng)
        # 70 rows of mixed lengths: three scoring batches of padded rows
        seqs = [random_dna(rng, int(n)) for n in rng.integers(5, 30, 70)]
        test = D.LabeledDataset(seqs, np.arange(70) % 2, "binary", 2)
        metrics, tuned = D.finetune_classify(checkpoint, train, test, mode="all_layers",
                                             config=TR.finetune_config(6, batch_size=8))
        model = tuned.build_model()
        head_w, head_b = tuned.params["classifier.w"], tuned.params["classifier.b"]
        lens = np.array([len(s) for s in seqs])
        ids = np.zeros((70, lens.max()), dtype=np.uint8)
        pool = np.zeros((70, lens.max(), 1), dtype=np.float32)
        for i, s in enumerate(seqs):
            ids[i, :len(s)] = encode(s)
            pool[i, :len(s), 0] = 1.0 / len(s)
        # oracle: numpy mean pooling and head over graph-free hidden states
        want = np.concatenate([
            (model.hidden(ids[i:i + 32]) * pool[i:i + 32]).sum(axis=1) @ head_w
            + head_b for i in range(0, 70, 32)])
        with K.no_grad():
            got = np.concatenate([
                D.classifier_logits(model, ids[i:i + 32], lens[i:i + 32],
                                    K.Tensor(head_w), K.Tensor(head_b)).data
                for i in range(0, 70, 32)])
        assert np.array_equal(got, want)
        expect = D.task_metrics("binary", 2, want, test.targets)
        assert {name: metrics[name] for name in expect} == expect

    def test_binary_auc_ranks_by_margin_without_overflow(self):
        # sigmoid(40) and sigmoid(50) both round to 1.0, which would tie them
        logits = np.array([[0, 40], [0, 50], [0, -800], [0, -1]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = D.task_metrics("binary", 2, logits, np.array([0, 1, 0, 1]))
        assert rec["auc_roc"] == 0.75
        assert rec["auc_pr"] == pytest.approx(5 / 6)

    def test_empty_split_rejected(self, checkpoint):
        empty = D.LabeledDataset([], np.zeros((0,), dtype=int), "binary", 2)
        full = D.LabeledDataset(["ACGT"], np.array([1]), "binary", 2)
        with pytest.raises(ValueError):
            D.finetune_classify(checkpoint, empty, full,
                                config=TR.finetune_config(1, batch_size=8))

    def test_overlength_sequences_truncated_with_warning(self, checkpoint, rng, caplog):
        seqs = [random_dna(rng, 50) for _ in range(8)]  # context is 32
        ys = np.array([0, 1] * 4)
        ds = D.LabeledDataset(seqs, ys, "binary", 2)
        cfg = TR.finetune_config(2, batch_size=4)
        with caplog.at_level("WARNING"):
            D.finetune_classify(checkpoint, ds, ds, mode="head_only", config=cfg)
        assert any("truncating" in r.message for r in caplog.records)

    def test_multilabel_smoke(self, checkpoint, rng):
        k = 3
        seqs = [random_dna(rng, 20) for _ in range(16)]
        ys = rng.integers(0, 2, (16, k))
        ys[0], ys[1] = 0, 1  # both classes present per label
        ds = D.LabeledDataset(seqs, ys, "multilabel", k)
        cfg = TR.finetune_config(4, batch_size=8)
        metrics, _ = D.finetune_classify(checkpoint, ds, ds, mode="head_only", config=cfg)
        assert metrics["median_auc"] is not None
        assert metrics["task"] == "multilabel"

    def test_mismatched_task_rejected(self, checkpoint):
        a = D.LabeledDataset(["ACGT"], np.array([1]), "binary", 2)
        b = D.LabeledDataset(["ACGT"], np.array([1]), "multiclass", 3)
        with pytest.raises(ValueError):
            D.finetune_classify(checkpoint, a, b, config=TR.finetune_config(1, batch_size=8))


class TestMultilabelMotifs:
    """Eight planted-motif presence labels; a slow end-to-end check that
    multilabel finetuning learns a genuinely learnable task."""

    K = 8

    def make_task(self, seed=77, n_train=500, n_test=200):
        rng = np.random.default_rng(seed)
        motifs = ["".join(rng.choice(list("ACGT"), size=8)) for _ in range(self.K)]
        slot = 128 // self.K

        def make(n):
            seqs, ys = [], []
            for _ in range(n):
                seq = list(rng.choice(list("ACGT"), size=128))
                flags = rng.integers(0, 2, self.K)
                for j, f in enumerate(flags):
                    if f:
                        seq[j * slot: j * slot + 8] = list(motifs[j])
                seqs.append("".join(seq))
                ys.append(flags)
            return D.LabeledDataset(seqs, np.array(ys), "multilabel", self.K)

        return motifs, make(n_train), make(n_test)

    def test_planted_motifs_reach_median_auc(self):
        from genelm import metrics as M
        from genelm.model import LanguageModel, ModelConfig

        motifs, train, test = self.make_task()
        # oracle: a direct motif-count classifier shows the labels are clean
        counts = np.array([[s.count(m) for m in motifs] for s in test.sequences],
                          dtype=float)
        assert M.median_auc_per_label(counts, test.targets) > 0.95

        cfg = ModelConfig(hidden=32, n_layers=2, n_heads=4, ffn_dim=88,
                          max_seq_len=128)
        fresh = LanguageModel.init(cfg, seed=0)
        ckpt = TR.Checkpoint(
            cfg, TR.TrainConfig(),
            {n: p.data.copy() for n, p in fresh.named_params().items()},
            None, 0, 0, 0)
        fcfg = TR.finetune_config(6000, batch_size=8, lr=1e-3, seed=0)
        metrics, _ = D.finetune_classify(ckpt, train, test, mode="all_layers",
                                         config=fcfg, head_seed=0)
        assert metrics["median_auc"] > 0.8
