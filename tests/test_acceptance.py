"""Acceptance suite: every criterion runs at its stated tolerance and
prints one ACCEPTANCE <n> PASS/FAIL line (echoed in the terminal summary).

The heavy criteria pretrain small models from scratch; session fixtures
share the expensive artifacts between criteria (the species backbone
serves both the probe and the finetuning-ordering checks).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from genelm import downstream as D
from genelm import evaluator as E
from genelm import genome_io as G
from genelm import kernels as K
from genelm import metrics as M
from genelm import tokenizer as T
from genelm import trainer as TR
from genelm.errors import CheckpointFormatError
from genelm.model import LanguageModel, ModelConfig, rope_angles, rope_apply
from genelm.tokenizer import next_token_targets

from test_metrics import (ap_threshold_scan, auc_pairwise, f1_counts,
                          mcc_contingency)


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------

SPECIES_SEEDS = [101, 102, 103, 104, 105]
SPECIES_CFG = ModelConfig(hidden=48, n_layers=2, n_heads=4, ffn_dim=132,
                          max_seq_len=256, rope_base=10000.0)


@pytest.fixture(scope="session")
def species_task():
    """Five order-2 sharpness-4 synthetic species: a mixed pretraining
    shard plus 500 train / 200 test labeled 512-bp sequences from fresh
    (non-pretraining) genome stretches."""
    train_windows = []
    seqs_tr, y_tr, seqs_te, y_te = [], [], [], []
    for label, seed in enumerate(SPECIES_SEEDS):
        g = G.generate_synthetic_genome(
            seed, 120_000 + 140 * 512, markov_order=2, sharpness=4.0).sequence
        rec = G.FastaRecord(f"sp{seed}", g[:120_000])
        train_windows += G.extract_windows([rec], 256).windows
        base = 120_000
        for i in range(100):
            seqs_tr.append(g[base + i * 512: base + (i + 1) * 512])
            y_tr.append(label)
        base = 120_000 + 100 * 512
        for i in range(40):
            seqs_te.append(g[base + i * 512: base + (i + 1) * 512])
            y_te.append(label)
    order = np.random.default_rng(0).permutation(len(train_windows))
    shard = T.encode_windows([train_windows[i] for i in order])
    return {
        "shard": shard,
        "train": D.LabeledDataset(seqs_tr, np.array(y_tr), "multiclass", 5),
        "test": D.LabeledDataset(seqs_te, np.array(y_te), "multiclass", 5),
    }


@pytest.fixture(scope="session")
def species_backbone(species_task):
    """The criterion-8 backbone: 2000 pretraining steps on the mixed corpus."""
    cfg = TR.TrainConfig(batch_size=8, total_iters=2000, warmup_iters=100,
                         lr_peak=2e-3, lr_min=2e-4, weight_decay=0.05, seed=0)
    t0 = time.time()
    ckpt, _ = TR.train_stage(SPECIES_CFG, cfg, species_task["shard"],
                             data_seed=2, init_seed=2)
    return ckpt, time.time() - t0


@pytest.fixture(scope="session")
def extension_run():
    """The criterion-6 experiment: order-3 Markov genome with planted
    repeats at lags 96 (inside the 128 training context) and 288 (outside
    it); base model trained at 128, then extended to 512."""
    t0 = time.time()
    rec = G.generate_synthetic_genome(21, 400_000, markov_order=3, sharpness=3.0)
    seq = G.plant_repeats(rec.sequence, lag=96, motif_len=48, period=224)
    seq = G.plant_repeats(seq, lag=288, motif_len=48, period=416)
    train_rec = G.FastaRecord("train", seq[:360_000])
    eval_rec = G.FastaRecord("eval", seq[360_000:])
    w128 = T.encode_windows(G.extract_windows([train_rec], 128).windows)
    w512 = T.encode_windows(G.extract_windows([train_rec], 512).windows)
    e128 = list(T.encode_windows(G.extract_windows([eval_rec], 128).windows))
    e512 = list(T.encode_windows(G.extract_windows([eval_rec], 512).windows))

    base_cfg = ModelConfig(hidden=64, n_layers=3, n_heads=4, ffn_dim=176,
                           max_seq_len=128, rope_base=10000.0)
    base_tc = TR.TrainConfig(batch_size=16, total_iters=1200, warmup_iters=100,
                             lr_peak=2e-3, lr_min=2e-4, weight_decay=0.05, seed=0)
    base, _ = TR.train_stage(base_cfg, base_tc, w128, data_seed=1, init_seed=1)

    ppl128, _ = E.perplexity(base.build_model(), e128)
    wide = dataclasses.replace(
        base, model_config=dataclasses.replace(base.model_config, max_seq_len=512))
    ppl512_pre, _ = E.perplexity(wide.build_model(), e512)

    ext_tc = TR.TrainConfig(batch_size=4, total_iters=300, warmup_iters=20,
                            lr_peak=1e-3, lr_min=1e-4, weight_decay=0.05, seed=0)
    ext, _ = TR.extend_context(base, 512, 10000.0 * 16, ext_tc, w512)
    ppl512_post, _ = E.perplexity(ext.build_model(), e512)
    return {"ppl128": ppl128, "ppl512_pre": ppl512_pre,
            "ppl512_post": ppl512_post, "base": base, "ext": ext,
            "seconds": time.time() - t0}


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    cfg = ModelConfig(vocab_size=6, hidden=16, n_layers=2, n_heads=4,
                      ffn_dim=44, max_seq_len=16)
    rng = np.random.default_rng(2024)
    tokens = rng.integers(2, 6, size=(1, 12))
    targets, mask = next_token_targets(tokens)

    model = LanguageModel.init(cfg, seed=7)
    K.backward(K.cross_entropy(model.forward(tokens), targets, mask))
    params32 = {n: p.data.copy() for n, p in model.named_params().items()}
    grads = {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for n, p in model.named_params().items()}

    def loss_at(params_np):
        m = LanguageModel(cfg, {n: K.Tensor(a.astype(np.float64))
                                for n, a in params_np.items()})
        with K.no_grad():
            return float(K.cross_entropy(m.forward(tokens), targets, mask).data)

    names = list(params32)
    cum = np.cumsum([params32[n].size for n in names])
    coords = rng.choice(int(cum[-1]), size=200, replace=False)

    # sixth-order central differences with h = 1e-2; perturbed parameters
    # are stored at 32-bit exactly as the deployed engine would hold them
    h = 1e-2
    weights = {3: 1.0, 2: -9.0, 1: 45.0, -1: -45.0, -2: 9.0, -3: -1.0}
    worst = 0.0
    for c in coords:
        i = int(np.searchsorted(cum, c, side="right"))
        off = int(c - (cum[i - 1] if i else 0))
        name = names[i]
        acc = 0.0
        for mult, w in weights.items():
            p = {n: a.copy() for n, a in params32.items()}
            p[name].ravel()[off] = np.float32(p[name].ravel()[off] + mult * h)
            acc += w * loss_at(p)
        numeric = acc / (60 * h)
        analytic = float(grads[name].ravel()[off])
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, err)
    elapsed = time.time() - t0
    record_acceptance(
        1, "whole-model analytic gradients match central differences",
        worst < 1e-3 and elapsed < 60,
        f"max rel err {worst:.2e} over 200 coords, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. perplexity identities
# ---------------------------------------------------------------------------

class UniformOverBases:
    max_seq_len = 4096

    def logits(self, ids):
        out = np.full((len(ids), 6), -1e30)
        out[:, 2:] = 0.0
        return out


def test_criterion_2_perplexity_identities():
    rng = np.random.default_rng(7)
    seqs = [rng.integers(2, 6, size=200) for _ in range(25)]
    seqs[0][50:60] = T.UNK_ID  # masked targets must not contribute
    ppl, mean_nll = E.perplexity(UniformOverBases(), seqs)
    uniform_ok = abs(ppl - 4.0) < 1e-6

    model = LanguageModel.init(
        ModelConfig(hidden=32, n_layers=2, n_heads=2, ffn_dim=48,
                    max_seq_len=64), seed=3)
    rec = G.generate_synthetic_genome(5, 20_000, markov_order=1, sharpness=2.0)
    report = E.length_sweep([("m", model)], [rec], [16, 32, 64])
    identity_ok = all(
        abs(r.ppl - math.exp(r.mean_nll)) < 1e-9 * r.ppl
        for r in report.rows if r.supported)
    record_acceptance(
        2, "uniform-logit ppl = 4.000000 and ppl == exp(mean_nll) per row",
        uniform_ok and identity_ok,
        f"uniform ppl {ppl:.9f}, {len(report.rows)} sweep rows")


# ---------------------------------------------------------------------------
# 3. memorization
# ---------------------------------------------------------------------------

def test_criterion_3_memorization():
    t0 = time.time()
    rec = G.generate_synthetic_genome(11, 256, markov_order=0, sharpness=0.0)
    ids = T.encode_windows([rec.sequence])
    cfg = ModelConfig(hidden=128, n_layers=4, n_heads=4, ffn_dim=352,
                      max_seq_len=256)
    tc = TR.TrainConfig(batch_size=1, total_iters=300, warmup_iters=20,
                        lr_peak=3e-3, lr_min=3e-4, weight_decay=0.0, seed=0)
    ckpt, rows = TR.train_stage(cfg, tc, ids, data_seed=0, init_seed=0)
    final_ppl = rows[-1]["ppl"]
    train_ppl, _ = E.perplexity(ckpt.build_model(), [ids[0]])
    elapsed = time.time() - t0
    record_acceptance(
        3, "desk-default model memorizes one 256-token window in 300 steps",
        final_ppl < 1.05 and train_ppl < 1.05 and elapsed < 300,
        f"train ppl {train_ppl:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. causality and determinism
# ---------------------------------------------------------------------------

def test_criterion_4_causality_and_determinism():
    rng = np.random.default_rng(99)
    model = LanguageModel.init(
        ModelConfig(hidden=32, n_layers=2, n_heads=4, ffn_dim=88,
                    max_seq_len=64), seed=1)
    causal_ok = True
    for _ in range(100):
        tokens = rng.integers(0, 6, size=48)
        j = int(rng.integers(1, 48))
        pert = tokens.copy()
        pert[j] = (pert[j] + 1 + rng.integers(0, 5)) % 6
        a = model.logits(tokens)
        b = model.logits(pert)
        if not np.array_equal(a[:j], b[:j]):
            causal_ok = False
            break

    data = rng.integers(2, 6, size=(32, 40)).astype(np.uint8)
    cfg = ModelConfig(hidden=16, n_layers=2, n_heads=2, ffn_dim=24,
                      max_seq_len=40)
    tc = TR.TrainConfig(batch_size=4, total_iters=25, warmup_iters=5,
                        lr_peak=1e-3, lr_min=1e-4, seed=0)
    _, rows_a = TR.train_stage(cfg, tc, data, data_seed=4, init_seed=4)
    _, rows_b = TR.train_stage(cfg, tc, data, data_seed=4, init_seed=4)
    determinism_ok = [r["loss"] for r in rows_a] == [r["loss"] for r in rows_b]
    record_acceptance(
        4, "prefix logits bit-stable under suffix edits; loss curves bit-identical",
        causal_ok and determinism_ok,
        "100 perturbation trials, 25-step curves")


# ---------------------------------------------------------------------------
# 5. rotary position properties
# ---------------------------------------------------------------------------

def test_criterion_5_rope_properties():
    rng = np.random.default_rng(17)
    d = 32
    angles = rope_angles(d, 1e4, np.arange(512))

    def rotate_at(vec, pos):
        x = np.tile(vec, (512, 1))[None]
        return rope_apply(K.Tensor(x), angles).data[0, pos]

    relative_ok = True
    for _ in range(100):
        q = rng.standard_normal(d)
        k = rng.standard_normal(d)
        m, n = sorted(rng.integers(0, 256, size=2))
        s = int(rng.integers(0, 256))
        a = float(rotate_at(q, m) @ rotate_at(k, n))
        b = float(rotate_at(q, m + s) @ rotate_at(k, n + s))
        if abs(a - b) > 1e-4 * max(1.0, abs(a)):
            relative_ok = False
            break

    x = rng.standard_normal((1, 64, d)).astype(np.float32)
    y = rope_apply(K.Tensor(x), angles).data
    norm_ok = bool(np.all(np.abs(np.linalg.norm(y, axis=-1)
                                 - np.linalg.norm(x, axis=-1)) < 1e-5))
    zero_ok = np.array_equal(y[0, 0], x[0, 0])
    record_acceptance(
        5, "rotary relative-position invariance, norm preservation, position-0 identity",
        relative_ok and norm_ok and zero_ok,
        "100 (m,n,s) triples at 1e-4")


# ---------------------------------------------------------------------------
# 6. context-extension trend
# ---------------------------------------------------------------------------

def test_criterion_6_extension_trend(extension_run):
    r = extension_run
    beyond_worse = r["ppl512_pre"] > r["ppl128"]
    drop = 1.0 - r["ppl512_post"] / r["ppl512_pre"]
    improved = r["ppl512_post"] < r["ppl512_pre"] and drop >= 0.05
    in_time = r["seconds"] < 1200
    record_acceptance(
        6, "short-context model degrades beyond its length; extension recovers it",
        beyond_worse and improved and in_time,
        f"ppl@128 {r['ppl128']:.3f}, ppl@512 pre {r['ppl512_pre']:.3f} -> "
        f"post {r['ppl512_post']:.3f} ({drop * 100:.0f}% drop), {r['seconds']:.0f}s")


# ---------------------------------------------------------------------------
# 7. schedule anchors
# ---------------------------------------------------------------------------

def test_criterion_7_schedule_anchors():
    base = TR.TrainConfig(lr_peak=4.8e-4, lr_min=4.8e-5,
                          warmup_iters=1000, total_iters=19000)
    ext = TR.TrainConfig(lr_peak=1e-4, lr_min=4e-5,
                         warmup_iters=50, total_iters=1000)
    ext_short = TR.TrainConfig(lr_peak=1e-4, lr_min=4e-5,
                               warmup_iters=20, total_iters=200)
    ok = (TR.lr_at(0, base) == 0.0
          and TR.lr_at(1000, base) == 4.8e-4
          and TR.lr_at(19000, base) == 4.8e-5
          and TR.lr_at(0, ext) == 0.0
          and TR.lr_at(50, ext) == 1e-4
          and TR.lr_at(1000, ext) == 4e-5
          and TR.lr_at(20, ext_short) == 1e-4
          and TR.lr_at(200, ext_short) == 4e-5)
    record_acceptance(7, "warmup/decay schedule reproduces every anchor exactly", ok)


# ---------------------------------------------------------------------------
# 8. embedding contracts and the species probe
# ---------------------------------------------------------------------------

def test_criterion_8_embedding_contracts(species_task, species_backbone):
    ckpt, train_seconds = species_backbone
    t0 = time.time()
    model = ckpt.build_model()

    rng = np.random.default_rng(3)
    short = "".join(rng.choice(list("ACGT"), size=200))
    single_ok = np.array_equal(
        D.embed_sequence(model, short, pooling="max"),
        model.hidden(T.encode(short)).max(axis=0))

    double = "".join(rng.choice(list("ACGT"), size=512))
    e1 = D.embed_sequence(model, double[:256], pooling="max")
    e2 = D.embed_sequence(model, double[256:], pooling="max")
    two_chunk_ok = np.array_equal(
        D.embed_sequence(model, double, pooling="max"),
        np.mean(np.stack([e1, e2]), axis=0))

    train, test = species_task["train"], species_task["test"]
    Xtr = D.embed_dataset(model, train.sequences, pooling="max")
    Xte = D.embed_dataset(model, test.sequences, pooling="max")
    rec = D.train_probe(Xtr, train.targets, Xte, test.targets,
                        n_classes=5, seed=0)
    elapsed = train_seconds + (time.time() - t0)
    record_acceptance(
        8, "chunked embeddings exact; species probe macro F1 >= 0.9",
        single_ok and two_chunk_ok and rec["f1_macro"] >= 0.9 and elapsed < 1800,
        f"macro F1 {rec['f1_macro']:.3f} on 500/200 split, {elapsed:.0f}s total")


# ---------------------------------------------------------------------------
# 9. finetuning-mode ordering
# ---------------------------------------------------------------------------

def test_criterion_9_finetune_ordering(species_task, species_backbone):
    ckpt, _ = species_backbone
    train, test = species_task["train"], species_task["test"]
    steps = 2 * math.ceil(len(train) / 8)
    ordering_ok = True
    frozen_ok = True
    details = []
    for seed in (0, 1, 2):
        accs = {}
        for mode in ("all_layers", "head_only"):
            cfg = TR.finetune_config(steps, batch_size=8, lr=1e-4, seed=seed)
            res = D.finetune_classify(ckpt, train, test, mode=mode,
                                      config=cfg, head_seed=seed)
            accs[mode] = res.metrics["accuracy"]
            if mode == "head_only":
                frozen_ok &= all(np.array_equal(res.backbone[n], ckpt.params[n])
                                 for n in ckpt.params)
        ordering_ok &= accs["all_layers"] >= accs["head_only"]
        details.append(f"s{seed}: {accs['all_layers']:.3f}>={accs['head_only']:.3f}")
    record_acceptance(
        9, "all-layers finetuning >= head-only across 3 seeds; backbone frozen bitwise",
        ordering_ok and frozen_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 10. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        p = rng.integers(0, 2, n)
        t = rng.integers(0, 2, n)
        want = mcc_contingency(p.tolist(), t.tolist())
        got = M.mcc(p, t)
        if want is None:
            ok &= got is None
        else:
            ok &= got is not None and abs(got - want) <= 1e-12
        ok &= abs(M.f1(p, t) - f1_counts(p.tolist(), t.tolist())) <= 1e-12

        s = np.round(rng.random(n), 1)
        roc_want = auc_pairwise(s.tolist(), t.tolist())
        roc_got = M.auc_roc(s, t)
        pr_want = ap_threshold_scan(s.tolist(), t.tolist())
        pr_got = M.auc_pr(s, t)
        for w, g in ((roc_want, roc_got), (pr_want, pr_got)):
            if w is None:
                ok &= g is None
            else:
                ok &= g is not None and abs(g - w) <= 1e-12
        if not ok:
            break
    record_acceptance(
        10, "MCC/F1/AUC match brute-force recomputation on 1000 instances",
        ok, "AUC within 1e-12 after tie-averaging")


# ---------------------------------------------------------------------------
# 11. checkpoint integrity
# ---------------------------------------------------------------------------

def test_criterion_11_checkpoint_integrity(tmp_path):
    rng = np.random.default_rng(5)
    cfg = ModelConfig(hidden=16, n_layers=2, n_heads=2, ffn_dim=24,
                      max_seq_len=32)
    data = rng.integers(2, 6, size=(48, 32)).astype(np.uint8)
    tc = TR.TrainConfig(batch_size=4, total_iters=30, warmup_iters=5,
                        lr_peak=1e-3, lr_min=1e-4, seed=0)

    ckpt, rows_full = TR.train_stage(cfg, tc, data, data_seed=6, init_seed=6)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    TR.save_checkpoint(ckpt, p1)
    loaded = TR.load_checkpoint(p1)
    TR.save_checkpoint(loaded, p2)
    round_trip_ok = (p1.read_bytes() == p2.read_bytes()
                     and all(np.array_equal(loaded.params[n], ckpt.params[n])
                             for n in ckpt.params))

    half, rows_half = TR.train_stage(cfg, tc, data, data_seed=6, init_seed=6,
                                     stop_at_step=15)
    resumed, rows_resumed = TR.train_stage(cfg, tc, data, start=half)
    resume_ok = ([r["loss"] for r in rows_half + rows_resumed]
                 == [r["loss"] for r in rows_full]
                 and all(np.array_equal(resumed.params[n], ckpt.params[n])
                         for n in ckpt.params))

    corrupted = bytearray(p1.read_bytes())
    corrupted[-40] ^= 0x10
    p1.write_bytes(bytes(corrupted))
    try:
        TR.load_checkpoint(p1)
        reject_ok = False
    except CheckpointFormatError:
        reject_ok = True

    record_acceptance(
        11, "checkpoints round-trip bitwise, resume exactly, reject corruption",
        round_trip_ok and resume_ok and reject_ok)
