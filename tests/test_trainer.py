import dataclasses
import functools
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import infinite_loss_checkpoint, mutated
from genelm import evaluator as E
from genelm import kernels as K
from genelm import tokenizer as T
from genelm import trainer as TR
from genelm import genome_io as G
from genelm.errors import (CheckpointFormatError, DataConfigError, GenelmError,
                           TrainingDivergedError)
from genelm.model import LanguageModel, ModelConfig

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt-fuzz")


SMALL = ModelConfig(vocab_size=6, hidden=16, n_layers=2, n_heads=2,
                    ffn_dim=24, max_seq_len=32)


def small_shard(rng, n=64, width=32):
    return rng.integers(2, 6, size=(n, width)).astype(np.uint8)


class TestLrSchedule:
    BASE_PLAN = TR.TrainConfig(lr_peak=4.8e-4, lr_min=4.8e-5,
                             warmup_iters=1000, total_iters=19000)

    def test_anchor_points(self):
        assert TR.lr_at(0, self.BASE_PLAN) == 0.0
        assert TR.lr_at(1000, self.BASE_PLAN) == 4.8e-4
        assert TR.lr_at(19000, self.BASE_PLAN) == 4.8e-5

    def test_extension_anchor_points(self):
        ext = TR.TrainConfig(lr_peak=1e-4, lr_min=4e-5,
                             warmup_iters=50, total_iters=1000)
        assert TR.lr_at(0, ext) == 0.0
        assert TR.lr_at(50, ext) == 1e-4
        assert TR.lr_at(1000, ext) == 4e-5

    def test_linear_midpoint(self):
        assert TR.lr_at(500, self.BASE_PLAN) == pytest.approx(4.8e-4 / 2, rel=1e-12)

    def test_cosine_midpoint(self):
        mid = TR.lr_at(10000, self.BASE_PLAN)
        assert mid == pytest.approx((4.8e-4 + 4.8e-5) / 2, rel=1e-12)

    def test_continuous_at_warmup(self):
        before = TR.lr_at(999, self.BASE_PLAN)
        at = TR.lr_at(1000, self.BASE_PLAN)
        after = TR.lr_at(1001, self.BASE_PLAN)
        assert before < at and after < at
        assert at - before < 1e-6 and at - after < 1e-8

    def test_linear_decay_schedule(self):
        cfg = TR.TrainConfig(lr_peak=1e-4, lr_min=0.0, warmup_iters=10,
                             total_iters=110, schedule="linear")
        assert TR.lr_at(60, cfg) == pytest.approx(5e-5, rel=1e-12)
        assert TR.lr_at(110, cfg) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TR.lr_at(-1, self.BASE_PLAN)
        with pytest.raises(ValueError):
            TR.lr_at(19001, self.BASE_PLAN)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TR.TrainConfig(warmup_iters=10, total_iters=5)
        with pytest.raises(ValueError):
            TR.TrainConfig(beta1=1.0)

    @pytest.mark.parametrize("field, value", [
        ("lr_peak", math.nan), ("lr_peak", math.inf), ("lr_min", -1.0),
        ("weight_decay", math.inf), ("weight_decay", -0.1), ("eps", math.nan),
        ("eps", 0.0), ("max_grad_norm", math.nan), ("max_grad_norm", 0.0),
        ("total_iters", -5), ("warmup_iters", -5), ("total_iters", 2.0),
        ("warmup_iters", True), ("seed", -1), ("seed", True), ("seed", 2.5),
        ("batch_size", 0), ("batch_size", 2.5), ("batch_size", True), ("batch_size", "x")])
    def test_non_finite_or_negative_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TR.TrainConfig(**{field: value})


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        p = {"w": K.Tensor(np.array([1.0, -2.0], dtype=np.float32))}
        cfg = TR.TrainConfig(weight_decay=0.0)
        state = TR.AdamState(p)
        before = p["w"].data.copy()
        TR.adamw_step(p, {"w": np.zeros(2, dtype=np.float32)}, state, 1, 1e-3, cfg)
        assert np.array_equal(p["w"].data, before)

    def test_first_step_closed_form(self):
        # step 1: m_hat = g, v_hat = g^2, update = lr*g/(|g| + eps)
        g = 0.37
        lr = 1e-2
        cfg = TR.TrainConfig(weight_decay=0.0, eps=1e-8)
        p = {"w": K.Tensor(np.array([2.0], dtype=np.float32))}
        state = TR.AdamState(p)
        TR.adamw_step(p, {"w": np.array([g], dtype=np.float32)}, state, 1, lr, cfg)
        expected = 2.0 - lr * g / (abs(g) + cfg.eps)
        assert abs(float(p["w"].data[0]) - expected) < 1e-7
        assert abs(float(p["w"].data[0]) - (2.0 - lr)) < 1e-6

    def test_quadratic_convergence(self):
        # minimize 0.5*(theta - 3)^2 by handing the optimizer its gradient
        cfg = TR.TrainConfig(weight_decay=0.0, beta2=0.999)
        p = {"w": K.Tensor(np.array([0.0], dtype=np.float32))}
        state = TR.AdamState(p)
        for step in range(1, 501):
            g = p["w"].data - 3.0
            TR.adamw_step(p, {"w": g}, state, step, 0.1, cfg)
        assert abs(float(p["w"].data[0]) - 3.0) < 1e-3

    def test_weight_decay_contraction_exact(self):
        lr, wd = 0.01, 0.1
        cfg = TR.TrainConfig(weight_decay=wd)
        p = {"w": K.Tensor(np.array([4.0, -8.0], dtype=np.float32))}
        state = TR.AdamState(p)
        expected = p["w"].data * np.float32(1.0 - lr * wd)
        TR.adamw_step(p, {"w": np.zeros(2, dtype=np.float32)}, state, 1, lr, cfg)
        assert np.array_equal(p["w"].data, expected)


class TestClip:
    def test_under_cap_unchanged(self):
        g = {"a": np.array([0.3, 0.4], dtype=np.float32)}
        before = g["a"].copy()
        assert TR.clip_global_norm(g, 1.0) == pytest.approx(0.5, rel=1e-6)
        assert np.array_equal(g["a"], before)

    def test_over_cap_scaled(self):
        g = {"a": np.array([4.0, 0.0], dtype=np.float32),
             "b": np.zeros(3, dtype=np.float32)}
        assert TR.clip_global_norm(g, 1.0) == 4.0  # the norm before clipping
        assert abs(TR.grad_global_norm(g) - 1.0) < 1e-6

    def test_all_zero_unchanged(self):
        g = {"a": np.zeros(4, dtype=np.float32)}
        assert TR.clip_global_norm(g, 1.0) == 0.0
        assert np.array_equal(g["a"], np.zeros(4, dtype=np.float32))

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20),
           st.floats(0.01, 10))
    @settings(max_examples=100)
    def test_post_clip_norm_bounded(self, values, max_norm):
        g = {"a": np.array(values, dtype=np.float32)}
        TR.clip_global_norm(g, max_norm)
        assert TR.grad_global_norm(g) <= max_norm + 1e-6


class TestOptimizerStep:
    @pytest.mark.parametrize("max_grad_norm", [1.0, math.inf])
    @pytest.mark.parametrize("bad, kind", [(np.nan, "NaN"), (np.inf, "infinite"),
                                           (-np.inf, "infinite")])
    def test_non_finite_gradient_diverges_naming_it(self, max_grad_norm, bad, kind):
        """Caught from the norm before the clip, so no `inf * 0` warning, and
        named for the first parameter whose gradient holds one."""
        cfg = TR.TrainConfig(max_grad_norm=max_grad_norm, total_iters=10, warmup_iters=1)
        params = {n: K.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
                  for n in ("a", "w", "z")}
        params["a"].grad = np.array([0.5, 1.0], dtype=np.float32)
        params["w"].grad = np.array([bad, 1.0], dtype=np.float32)
        params["z"].grad = np.array([bad, bad], dtype=np.float32)
        state = TR.AdamState(params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as exc:
                TR.optimizer_step(None, params, state, 7, cfg)
        assert exc.value.step == 7
        assert f"{kind} gradient in w" in str(exc.value)
        for p in params.values():  # no update was taken
            assert np.array_equal(p.data, np.ones(2, dtype=np.float32))

    def test_nan_named_over_an_earlier_infinite_gradient(self):
        cfg = TR.TrainConfig(total_iters=10, warmup_iters=1)
        params = {n: K.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
                  for n in ("a", "w")}
        params["a"].grad = np.array([np.inf, 1.0], dtype=np.float32)
        params["w"].grad = np.array([np.nan, 1.0], dtype=np.float32)
        with pytest.raises(TrainingDivergedError, match="NaN gradient in w"):
            TR.optimizer_step(None, params, TR.AdamState(params), 1, cfg)

    def test_matches_backward_clip_adamw_by_hand(self, rng):
        cfg = TR.TrainConfig(total_iters=10, warmup_iters=2, max_grad_norm=0.01)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        y = rng.integers(0, 4, 5)
        w0 = rng.standard_normal((3, 4)).astype(np.float32)
        unused0 = np.ones(2, dtype=np.float32)

        def setup():
            params = {"w": K.Tensor(w0.copy(), requires_grad=True),
                      "unused": K.Tensor(unused0.copy(), requires_grad=True)}
            loss = K.cross_entropy(K.matmul(K.Tensor(x), params["w"]), y)
            return params, TR.AdamState(params), loss

        params, state, loss = setup()
        norm = TR.optimizer_step(loss, params, state, 3, cfg)
        assert all(p.grad is None or not p.grad.any() for p in params.values())

        ref, ref_state, ref_loss = setup()
        K.backward(ref_loss)
        grads = {"w": ref["w"].grad, "unused": np.zeros(2, dtype=np.float32)}
        assert norm == TR.grad_global_norm(grads) > cfg.max_grad_norm
        TR.clip_global_norm(grads, cfg.max_grad_norm)
        TR.adamw_step(ref, grads, ref_state, 3, TR.lr_at(3, cfg), cfg)
        for n in params:
            assert np.array_equal(params[n].data, ref[n].data)
            assert np.array_equal(state.m[n], ref_state.m[n])


@functools.cache
def fuzz_checkpoint(has_moments: bool) -> bytes:
    """A valid checkpoint of a model small enough that edits often land in
    its header."""
    cfg = ModelConfig(vocab_size=6, hidden=4, n_layers=1, n_heads=2, ffn_dim=4,
                      max_seq_len=4)
    params = {n: p.data for n, p in LanguageModel.init(cfg, seed=3).named_params().items()}
    moments = (params, params) if has_moments else None
    ckpt = TR.Checkpoint(cfg, TR.TrainConfig(), params, moments, step=2, stage=1,
                         data_seed=5)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "valid.ckpt")
        TR.save_checkpoint(ckpt, path)
        with open(path, "rb") as f:
            return f.read()


json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


def json_paths(obj, prefix=()):
    """Every key path into a parsed JSON value, the root excluded, and
    within the tensor manifest only its entries, not their shapes' items."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        if prefix != ("tensors",):
            yield from json_paths(value, prefix + (key,))


@st.composite
def header_edited(draw, valid: bytes) -> bytes:
    """`valid` with one header value replaced by random JSON, or deleted;
    the payload and its checksum are left as they were."""
    magic, header, payload = valid.split(b"\n", 2)
    header = json.loads(header)
    *parents, key = draw(st.sampled_from(list(json_paths(header))))
    owner = header
    for p in parents:
        owner = owner[p]
    if isinstance(owner, dict) and draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = draw(json_value)
    return b"\n".join([magic, json.dumps(header).encode(), payload])


class TestCheckpoint:
    def make(self, rng, step=17):
        model = LanguageModel.init(SMALL, seed=1)
        params = {n: p.data.copy() for n, p in model.named_params().items()}
        moments = ({n: rng.standard_normal(a.shape).astype(np.float32)
                    for n, a in params.items()},
                   {n: np.abs(rng.standard_normal(a.shape)).astype(np.float32)
                    for n, a in params.items()})
        return TR.Checkpoint(SMALL, TR.TrainConfig(), params, moments,
                             step=step, stage=2, data_seed=9)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        ckpt = self.make(rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        TR.save_checkpoint(ckpt, p1)
        loaded = TR.load_checkpoint(p1)
        assert loaded.step == 17 and loaded.stage == 2 and loaded.data_seed == 9
        assert loaded.model_config == SMALL
        for n in ckpt.params:
            assert np.array_equal(loaded.params[n], ckpt.params[n])
            assert np.array_equal(loaded.moments[0][n], ckpt.moments[0][n])
            assert np.array_equal(loaded.moments[1][n], ckpt.moments[1][n])
        TR.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_payload_byte_rejected(self, tmp_path, rng):
        path = tmp_path / "c.bin"
        TR.save_checkpoint(self.make(rng), path)
        data = bytearray(path.read_bytes())
        data[-100] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="checksum"):
            TR.load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, rng):
        path = tmp_path / "t.bin"
        TR.save_checkpoint(self.make(rng), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointFormatError):
            TR.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOT A CHECKPOINT\n{}\n")
        with pytest.raises(CheckpointFormatError):
            TR.load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("tensors", None), ("has_moments", None), ("has_moments", "yes"),
        ("model_config", None), ("model_config", {"hidden": "wide"}),
        ("model_config", {"n_heads": 0}),
        ("train_config", {"batch_size": 0}), ("step", None), ("step", "17"),
        ("payload_crc32", None), ("model_config", {"norm_eps": "x"}),
        ("model_config", {"norm_eps": math.nan}), ("model_config", {"rope_base": 10**400}),
        ("train_config", {"lr_peak": math.nan}), ("train_config", {"lr_peak": 10**400}),
        ("step", -5), ("stage", -1), ("data_seed", -1), ("train_config", {"seed": -1})])
    def test_malformed_header_rejected(self, tmp_path, rng, key, value):
        path = tmp_path / "h.bin"
        TR.save_checkpoint(self.make(rng), path)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        header = json.loads(header)
        if value is None:
            del header[key]
        else:
            header[key] = value
        path.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))
        with pytest.raises(CheckpointFormatError, match="malformed header"):
            TR.load_checkpoint(path)

    def test_mismatched_config_names_tensor(self, tmp_path, rng):
        """The header's own model_config must fit the tensor manifest."""
        path = tmp_path / "s.bin"
        TR.save_checkpoint(self.make(rng), path)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        for edit, tensor in (({"ffn_dim": 48}, "layers.0.w1"),
                             ({"hidden": 32}, "token_embedding")):
            bad = json.loads(header)
            bad["model_config"].update(edit)
            path.write_bytes(b"\n".join([magic, json.dumps(bad).encode(), payload]))
            with pytest.raises(CheckpointFormatError, match=f"tensor {tensor} "):
                TR.load_checkpoint(path)

    def test_deeply_nested_header_rejected(self, tmp_path):
        path = tmp_path / "n.bin"
        path.write_bytes(f"{TR.CKPT_MAGIC}\n".encode() + b"[" * 100_000 + b"\n")
        with pytest.raises(CheckpointFormatError, match="unreadable header"):
            TR.load_checkpoint(path)

    @given(st.one_of(st.binary(max_size=200),
                     st.booleans().map(fuzz_checkpoint).flatmap(mutated),
                     st.booleans().map(fuzz_checkpoint).flatmap(header_edited)))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_load_or_raise_named_error(self, fuzz_dir, data):
        """Every file loads or raises a named error, and one that loads
        builds a model that scores a 2-token sequence."""
        path = fuzz_dir / "fuzz.ckpt"
        path.write_bytes(data)
        try:
            ckpt = TR.load_checkpoint(path)
        except GenelmError as exc:
            assert str(exc).startswith(f"{path}:")
            return
        nll, _, mask = E.score(ckpt.build_model(), np.array([2, 3]))
        assert nll.shape == mask.shape == (2,)


class TestTrainStage:
    def test_initial_loss_near_log_vocab(self, rng):
        data = small_shard(rng)
        cfg = TR.TrainConfig(batch_size=4, total_iters=1, warmup_iters=0,
                             lr_peak=1e-4, lr_min=1e-5)
        _, rows = TR.train_stage(SMALL, cfg, data, init_seed=0)
        assert abs(rows[0]["loss"] - math.log(6)) < 0.05

    def test_loss_decreases(self, rng):
        data = small_shard(rng, n=16)
        cfg = TR.TrainConfig(batch_size=4, total_iters=60, warmup_iters=10,
                             lr_peak=3e-3, lr_min=3e-4, weight_decay=0.0)
        _, rows = TR.train_stage(SMALL, cfg, data, init_seed=0)
        assert rows[-1]["loss"] < rows[0]["loss"] - 0.1

    def test_resume_bit_identical(self, rng):
        data = small_shard(rng)
        full_cfg = TR.TrainConfig(batch_size=4, total_iters=40, warmup_iters=5,
                                  lr_peak=1e-3, lr_min=1e-4)
        ckpt_full, rows_full = TR.train_stage(SMALL, full_cfg, data,
                                              data_seed=3, init_seed=1)
        ckpt_half, rows_half = TR.train_stage(SMALL, full_cfg, data,
                                              data_seed=3, init_seed=1,
                                              stop_at_step=20)
        assert ckpt_half.step == 20
        ckpt_resumed, rows_resumed = TR.train_stage(
            SMALL, full_cfg, data, start=ckpt_half)
        assert [r["loss"] for r in rows_half + rows_resumed] == \
               [r["loss"] for r in rows_full]
        for n in ckpt_full.params:
            assert np.array_equal(ckpt_full.params[n], ckpt_resumed.params[n])
            assert np.array_equal(ckpt_full.moments[0][n], ckpt_resumed.moments[0][n])

    def test_resume_refuses_changed_schedule(self, rng):
        data = small_shard(rng)
        cfg = TR.TrainConfig(batch_size=4, total_iters=10, warmup_iters=2,
                             lr_peak=1e-3, lr_min=1e-4)
        half, _ = TR.train_stage(SMALL, cfg, data, stop_at_step=5)
        for change in ({"total_iters": 20}, {"lr_peak": 2e-3}, {"batch_size": 2}):
            with pytest.raises(DataConfigError, match="train config"):
                TR.train_stage(SMALL, dataclasses.replace(cfg, **change), data,
                               start=half)
        # a step-0 checkpoint (a fresh context extension) takes any schedule
        other = dataclasses.replace(cfg, total_iters=3, warmup_iters=0)
        fresh = dataclasses.replace(half, step=0, moments=None)
        _, rows = TR.train_stage(SMALL, other, data, start=fresh)
        assert len(rows) == 3

    def test_fixed_seeds_reproduce_loss_curve(self, rng):
        data = small_shard(rng)
        cfg = TR.TrainConfig(batch_size=4, total_iters=15, warmup_iters=2,
                             lr_peak=1e-3, lr_min=1e-4)
        _, rows_a = TR.train_stage(SMALL, cfg, data, data_seed=5, init_seed=5)
        _, rows_b = TR.train_stage(SMALL, cfg, data, data_seed=5, init_seed=5)
        assert [r["loss"] for r in rows_a] == [r["loss"] for r in rows_b]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_infinite_loss_diverges(self, rng):
        cfg = TR.TrainConfig(batch_size=4, total_iters=3, warmup_iters=0)
        ckpt = infinite_loss_checkpoint(SMALL, cfg)
        with pytest.raises(TrainingDivergedError, match="step 1: infinite loss"):
            TR.train_stage(SMALL, cfg, small_shard(rng), start=ckpt)

    def test_windows_shorter_than_context_rejected(self, rng):
        data = small_shard(rng, width=16)
        cfg = TR.TrainConfig(batch_size=2, total_iters=2, warmup_iters=0)
        with pytest.raises(DataConfigError):
            TR.train_stage(SMALL, cfg, data)

    def test_metrics_log_written(self, tmp_path, rng):
        data = small_shard(rng)
        cfg = TR.TrainConfig(batch_size=2, total_iters=3, warmup_iters=1,
                             lr_peak=1e-3, lr_min=1e-4)
        log = tmp_path / "metrics.jsonl"
        _, rows = TR.train_stage(SMALL, cfg, data, log_path=log)
        lines = [json.loads(x) for x in log.read_text().splitlines()]
        assert len(lines) == 3
        for want, got in zip(rows, lines):
            assert set(got) == {"step", "lr", "loss", "ppl", "grad_norm",
                                "tokens_seen", "wall_ms", "peak_rss_mb"}
            assert got["loss"] == want["loss"]
            assert got["peak_rss_mb"] > 0


def step_gradients(monkeypatch, cfg, tcfg, data, seed):
    """The gradients train_stage hands its first optimizer step, in float64,
    and that step's loss."""
    seen = []
    step = TR.optimizer_step

    def capture(loss, params, *args):
        seen.append({n: p.grad.astype(np.float64) for n, p in params.items()})
        return step(loss, params, *args)

    monkeypatch.setattr(TR, "optimizer_step", capture)
    _, rows = TR.train_stage(cfg, dataclasses.replace(tcfg, total_iters=1, warmup_iters=0),
                             data, data_seed=seed, init_seed=seed)
    return seen[0], rows[0]["loss"]


def whole_batch_oracle(cfg, tcfg, data, seed):
    """Gradients and loss of the first batch as one float64 graph."""
    model = LanguageModel.init(cfg, seed=seed)
    model64 = LanguageModel(cfg, {n: K.Tensor(p.data.astype(np.float64), requires_grad=True)
                                  for n, p in model.params.items()})
    batch = data[TR.BatchSchedule(len(data), tcfg.batch_size, seed).indices(0),
                 :cfg.max_seq_len].astype(np.int64)
    loss = K.cross_entropy(model64.forward(batch), *T.next_token_targets(batch))
    K.backward(loss)
    return {n: p.grad for n, p in model64.named_params().items()}, float(loss.data)


class TestHalves:
    """A batch of B >= 2 runs as rows [0, B//2) and [B//2, B), each with its
    own gradients; half 1's are added to half 0's."""

    @pytest.mark.parametrize("batch_size, masked_rows", [(2, 0), (3, 0), (8, 0), (3, 1),
                                                          (8, 4)])
    def test_gradient_matches_float64_whole_batch(self, rng, monkeypatch, batch_size,
                                                  masked_rows):
        """masked_rows: leading batch rows made all-N, so the first half
        scores less than the second or nothing at all."""
        data = small_shard(rng, n=batch_size)
        tcfg = TR.TrainConfig(batch_size=batch_size)
        order = TR.BatchSchedule(len(data), batch_size, 7).indices(0)
        data[order[:masked_rows]] = T.UNK_ID
        data[order[masked_rows:], 5] = T.UNK_ID  # and a few masked targets elsewhere
        got, loss = step_gradients(monkeypatch, SMALL, tcfg, data, 7)
        want, want_loss = whole_batch_oracle(SMALL, tcfg, data, 7)
        assert loss == pytest.approx(want_loss, rel=1e-6)
        for n, g in want.items():
            np.testing.assert_allclose(got[n], g, rtol=2e-4, atol=2e-7 * np.abs(g).max(),
                                       err_msg=n)

    def test_fully_masked_batch_raises(self, rng):
        data = np.full((4, 32), T.UNK_ID, dtype=np.uint8)
        tcfg = TR.TrainConfig(batch_size=2, total_iters=1, warmup_iters=0)
        with pytest.raises(ValueError, match="no scored target"):
            TR.train_stage(SMALL, tcfg, data)

    def test_batch_of_one_is_the_whole_batch_step(self, rng):
        """B = 1 takes the step written out here: one forward, the batch's
        mean loss, backward, clip and AdamW, bit for bit."""
        data = small_shard(rng, n=8)
        tcfg = TR.TrainConfig(batch_size=1, total_iters=4, warmup_iters=1,
                              lr_peak=1e-3, lr_min=1e-4)
        ckpt, rows = TR.train_stage(SMALL, tcfg, data, data_seed=2, init_seed=2)
        model = LanguageModel.init(SMALL, seed=2)
        params = model.named_params()
        state = TR.AdamState(params)
        schedule = TR.BatchSchedule(len(data), 1, 2)
        for i, row in enumerate(rows):
            batch = data[schedule.indices(i), :SMALL.max_seq_len].astype(np.int64)
            loss = K.cross_entropy(model.forward(batch), *T.next_token_targets(batch))
            assert row["loss"] == float(loss.data)
            assert row["grad_norm"] == TR.optimizer_step(loss, params, state, i + 1, tcfg)
        for n, p in params.items():
            assert np.array_equal(ckpt.params[n], p.data), n
            assert np.array_equal(ckpt.moments[0][n], state.m[n]), n
            assert np.array_equal(ckpt.moments[1][n], state.v[n]), n


class TestExtension:
    def base_checkpoint(self, rng):
        data = small_shard(rng)
        cfg = TR.TrainConfig(batch_size=4, total_iters=10, warmup_iters=2,
                             lr_peak=1e-3, lr_min=1e-4)
        ckpt, _ = TR.train_stage(SMALL, cfg, data, init_seed=2)
        return ckpt

    def test_extension_changes_no_weights_before_step(self, rng):
        ckpt = self.base_checkpoint(rng)
        prep = TR.prepare_extension(ckpt, 64, 1.6e5)
        assert prep.model_config.max_seq_len == 64
        assert prep.model_config.rope_base == 1.6e5
        assert prep.step == 0 and prep.stage == ckpt.stage + 1
        for n in ckpt.params:
            assert np.array_equal(prep.params[n], ckpt.params[n])

    def test_resumed_extension_keeps_its_stage(self, rng):
        prep = TR.prepare_extension(self.base_checkpoint(rng), 64)
        cfg = TR.TrainConfig(batch_size=2, total_iters=2, warmup_iters=0)
        out, _ = TR.train_stage(prep.model_config, cfg, small_shard(rng, width=64),
                                start=prep)
        assert prep.stage == out.stage == 1
        assert TR.prepare_extension(out, 128).stage == 2

    def test_default_rope_base_is_squared_ratio(self):
        assert TR.default_rope_base(1e4, 128, 512) == pytest.approx(1.6e5)

    def test_extension_requires_longer_context(self, rng):
        ckpt = self.base_checkpoint(rng)
        with pytest.raises(ValueError):
            TR.prepare_extension(ckpt, SMALL.max_seq_len)

    def test_staged_doubling_plan_smoke(self, rng):
        rec = G.generate_synthetic_genome(8, 40_000, 1, 2.0)
        cfg = TR.TrainConfig(batch_size=4, total_iters=6, warmup_iters=1,
                             lr_peak=1e-3, lr_min=1e-4)
        shards = [T.encode_windows(G.extract_windows([rec], n).windows)
                  for n in (32, 64, 128)]
        ckpt, rows = TR.train_stage(SMALL, cfg, shards[0])
        logs = [rows]
        for n, shard in zip((64, 128), shards[1:]):
            ckpt, rows = TR.extend_context(ckpt, n, None, cfg, shard)
            logs.append(rows)
        assert ckpt.model_config.max_seq_len == 128
        assert ckpt.stage == 2
        for stage_rows in logs:
            assert all(math.isfinite(r["loss"]) for r in stage_rows)
