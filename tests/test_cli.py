import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import infinite_loss_checkpoint
from genelm import cli
from genelm import tokenizer as T
from genelm import trainer as TR
from genelm.errors import CheckpointFormatError, GenelmError
from genelm.model import ModelConfig

DATA = Path(__file__).parent / "data"


def run(argv):
    return cli.main(argv)


def write_dataset(path, rng, n=12):
    rows = "".join(f"{''.join(rng.choice(list('ACGT'), size=48))}\t{y}\n"
                   for y in rng.integers(0, 2, n))
    path.write_text("task_kind=binary\tk=2\n" + rows)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Small end-to-end artifact set: shards plus a briefly trained model."""
    root = tmp_path_factory.mktemp("cliwork")
    out = root / "data"
    rc = run(["prepare", "--synthetic", "length=60000", "markov_order=1",
              "sharpness=2", "--window-len", "64", "--eval-fraction", "0.1",
              "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    run_dir = root / "run"
    rc = run(["train", "--shards", str(out / "train.tokens"),
              "--hidden", "32", "--n-layers", "1", "--n-heads", "2",
              "--ffn-dim", "48", "--context-len", "64",
              "--batch-size", "8", "--total-iters", "30", "--warmup-iters", "5",
              "--lr-peak", "2e-3", "--lr-min", "2e-4",
              "--out-dir", str(run_dir)])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg")


@st.composite
def config_text(draw):
    """Config-file-like bytes: known and unknown keys, list-valued keys,
    good and bad values, comments, blank lines and stray bytes."""
    keys = st.sampled_from(["hidden", "n-layers", "lr-peak", "init-from", "seed",
                            "config", "help", "nope", "", "shards", "out-dir"])
    values = st.text(alphabet="0123456789.-eax =#\t\u00e9", max_size=8)
    lines = st.one_of(st.tuples(keys, values).map("=".join), values)
    text = "\n".join(draw(st.lists(lines, max_size=5)))
    return text.encode(draw(st.sampled_from(["ascii", "utf-8", "latin-1"])), "replace")


# every file a subcommand writes -> the subcommand that writes it
OUTPUTS = {"train.tokens": "prepare", "stats.txt": "prepare", "checkpoint.bin": "train",
           "ppl.jsonl": "eval-ppl", "sweep.csv": "sweep", "sweep.jsonl": "sweep",
           "X.npy": "embed", "probe.json": "probe", "metrics.json": "finetune",
           "finetuned.bin": "finetune"}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_failed_replace_keeps_previous_output(prepared, tmp_path, rng, monkeypatch,
                                              capsys, name):
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(b"previous")
    ckpt = str(prepared / "run" / "checkpoint.bin")
    tsv = tmp_path / "d.tsv"
    write_dataset(tsv, rng, 8)
    data = ["--train-dataset", str(tsv), "--test-dataset", str(tsv)]
    argv = {
        "prepare": ["--synthetic", "length=2000", "--window-len", "100",
                    "--out-dir", str(out)],
        "train": ["--shards", str(prepared / "data" / "train.tokens"), "--hidden", "32",
                  "--n-layers", "1", "--n-heads", "2", "--ffn-dim", "48",
                  "--context-len", "64", "--total-iters", "1", "--warmup-iters", "0",
                  "--out-dir", str(out)],
        "eval-ppl": ["--checkpoint", ckpt, "--shards", str(prepared / "data" / "eval.tokens"),
                     "--max-sequences", "2", "--out", str(out / name)],
        "sweep": ["--checkpoints", ckpt, "--synthetic", "length=2000", "--lengths", "16",
                  "--max-sequences", "2", "--out-dir", str(out)],
        "embed": ["--checkpoint", ckpt, "--dataset", str(tsv), "--out", str(out / name)],
        "probe": ["--checkpoint", ckpt, *data, "--out", str(out / name)],
        "finetune": ["--checkpoint", ckpt, *data, "--epochs", "1", "--out-dir", str(out)],
    }[OUTPUTS[name]]
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert run([OUTPUTS[name], *argv]) == 2
    assert "disk full" in capsys.readouterr().err
    assert (out / name).read_bytes() == b"previous"
    assert not [p for p in os.listdir(out) if p.endswith(".tmp")]


class TestHelpGolden:
    @pytest.mark.parametrize("name", ["main", "prepare", "train", "extend",
                                      "eval_ppl", "sweep", "embed", "probe",
                                      "finetune"])
    def test_help_matches_golden(self, name):
        parser = cli.build_parser()
        if name == "main":
            text = parser.format_help()
        else:
            sub = parser._subparsers._group_actions[0].choices[name.replace("_", "-")]
            text = sub.format_help()
        golden = (DATA / f"help_{name}.txt").read_text()
        assert text == golden

    def test_every_flag_shows_default(self):
        parser = cli.build_parser()
        for name, sub in parser._subparsers._group_actions[0].choices.items():
            text = sub.format_help()
            assert "default:" in text, name


class TestPrepare:
    def test_synthetic_window_arithmetic(self, tmp_path):
        rc = run(["prepare", "--synthetic", "length=1000000",
                  "--window-len", "512", "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        stats = (tmp_path / "o" / "stats.txt").read_text()
        fields = dict(line.split("=") for line in stats.split())
        assert int(fields["windows_kept"]) == 1953  # floor(1e6 / 512)
        assert int(fields["train_windows"]) + int(fields["eval_windows"]) == 1953

    def test_empty_eval_split_reads_back(self, tmp_path):
        rc = run(["prepare", "--synthetic", "length=2000", "--window-len", "100",
                  "--eval-fraction", "0", "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        assert T.read_shard(tmp_path / "o" / "eval.tokens").shape == (0, 100)
        assert T.read_shard(tmp_path / "o" / "train.tokens").shape == (20, 100)

    def test_malformed_fasta_exit_2_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.fa"
        bad.write_text(">chr\nACGT\nAC!T\n")
        rc = run(["prepare", "--fasta", str(bad), "--window-len", "4",
                  "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_non_ascii_fasta_exit_2_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.fa"
        bad.write_bytes(">r1\r\nACGT\r\nACGT\xc3\xa9AC\r\n".encode("latin-1"))
        rc = run(["prepare", "--fasta", str(bad), "--window-len", "4",
                  "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "line 3: non-ASCII byte 0xc3" in capsys.readouterr().err

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run(["prepare", "--synthetic", "length=30000", "sharpness=1",
                      "markov_order=1", "--window-len", "32", "--seed", "9",
                      "--out-dir", str(out)])
            assert rc == 0
        for name in ("train.tokens", "eval.tokens", "stats.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("argv, message", [
        (["--synthetic", "length=5000", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["--synthetic", "length=5000", "seed=-1"], "seed must be an integer >= 0, got -1"),
        (["--synthetic", "length=abc"], "--synthetic length must be an integer, got 'abc'"),
        (["--synthetic", "length=5000", "sharpness=x"],
         "--synthetic sharpness must be a number, got 'x'"),
        (["--synthetic", "length=5000", "lenght=5"], "--synthetic has no key 'lenght'"),
        (["--synthetic", "length=5000", "sharpness=nan"],
         "sharpness must be a finite number >= 0, got nan"),
        (["--synthetic", "length=5000", "sharpness=inf"],
         "sharpness must be a finite number >= 0, got inf"),
    ])
    def test_bad_synthetic_spec_or_seed_exits_2_naming_it(self, tmp_path, capsys, argv,
                                                           message):
        rc = run(["prepare", *argv, "--window-len", "64", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_with_fasta_exits_2(self, tmp_path, capsys):
        fa = tmp_path / "in.fa"
        fa.write_text(">c\n" + "ACGT" * 32 + "\n")
        rc = run(["prepare", "--fasta", str(fa), "--window-len", "16", "--seed", "-1",
                  "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_both_inputs_rejected(self, tmp_path, capsys):
        rc = run(["prepare", "--fasta", "x.fa", "--synthetic", "length=10",
                  "--window-len", "4", "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_source_holdout_split(self, tmp_path):
        fa = tmp_path / "two.fa"
        fa.write_text(">chrA\n" + "ACGT" * 64 + "\n>chrB\n" + "TTCA" * 64 + "\n")
        rc = run(["prepare", "--fasta", str(fa), "--window-len", "32",
                  "--eval-holdout", "chrB", "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        train = T.read_shard(tmp_path / "o" / "train.tokens")
        ev = T.read_shard(tmp_path / "o" / "eval.tokens")
        assert len(train) == len(ev) == 8

    def test_input_file_never_modified(self, tmp_path):
        fa = tmp_path / "in.fa"
        fa.write_text(">c\n" + "ACGT" * 32 + "\n")
        before = fa.read_bytes()
        run(["prepare", "--fasta", str(fa), "--window-len", "16",
             "--out-dir", str(tmp_path / "o")])
        assert fa.read_bytes() == before


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["prepare", "--window-len", "4"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_checkpoint_file_exits_2(self, tmp_path, capsys):
        rc = run(["eval-ppl", "--checkpoint", str(tmp_path / "none.bin"),
                  "--shards", str(tmp_path / "none.tokens")])
        assert rc == 2


    def test_malformed_checkpoint_header_exits_2(self, prepared, tmp_path, capsys):
        magic, header, payload = (prepared / "run" / "checkpoint.bin").read_bytes().split(
            b"\n", 2)
        header = json.loads(header)
        del header["tensors"]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))
        with pytest.raises(CheckpointFormatError):
            TR.load_checkpoint(bad)
        rc = run(["eval-ppl", "--checkpoint", str(bad),
                  "--shards", str(prepared / "data" / "eval.tokens")])
        assert rc == 2
        assert "malformed header" in capsys.readouterr().err

    def test_header_config_disagreeing_with_tensors_exits_2(self, prepared, tmp_path,
                                                            capsys):
        magic, header, payload = (prepared / "run" / "checkpoint.bin").read_bytes().split(
            b"\n", 2)
        header = json.loads(header)
        header["model_config"]["ffn_dim"] *= 2
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))
        rc = run(["eval-ppl", "--checkpoint", str(bad),
                  "--shards", str(prepared / "data" / "eval.tokens")])
        assert rc == 2
        assert "tensor layers.0.w1 " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", float("nan")])
    def test_bad_norm_eps_in_checkpoint_exits_2(self, prepared, tmp_path, capsys, value):
        # "x" used to fail inside rmsnorm with exit 1, NaN to print ppl=nan
        magic, header, payload = (prepared / "run" / "checkpoint.bin").read_bytes().split(
            b"\n", 2)
        header = json.loads(header)
        header["model_config"]["norm_eps"] = value
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))
        rc = run(["eval-ppl", "--checkpoint", str(bad),
                  "--shards", str(prepared / "data" / "eval.tokens")])
        assert rc == 2
        assert "norm_eps must be a finite positive number" in capsys.readouterr().err

    def test_max_sequences_below_1_exits_2(self, prepared, tmp_path, capsys):
        ckpt = str(prepared / "run" / "checkpoint.bin")
        for n in ("0", "-1"):
            rc = run(["eval-ppl", "--checkpoint", ckpt, "--max-sequences", n,
                      "--shards", str(prepared / "data" / "eval.tokens")])
            assert rc == 2
            assert "max-sequences must be >= 1" in capsys.readouterr().err
            rc = run(["sweep", "--checkpoints", ckpt, "--synthetic", "length=2000",
                      "--lengths", "32", "--max-sequences", n,
                      "--out-dir", str(tmp_path / "sw")])
            assert rc == 2
            assert "max_sequences must be >= 1" in capsys.readouterr().err

    def test_finetune_batch_size_0_exits_2(self, prepared, tmp_path, capsys):
        rc = run(["finetune", "--checkpoint", str(prepared / "run" / "checkpoint.bin"),
                  "--train-dataset", str(tmp_path / "tr.tsv"),
                  "--test-dataset", str(tmp_path / "te.tsv"), "--batch-size", "0",
                  "--out-dir", str(tmp_path / "ft")])
        assert rc == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err

    def test_non_finite_rate_exits_2(self, prepared, tmp_path, capsys):
        rc = run(["train", "--shards", str(prepared / "data" / "train.tokens"),
                  "--hidden", "16", "--n-layers", "1", "--n-heads", "2",
                  "--ffn-dim", "32", "--context-len", "64", "--total-iters", "3",
                  "--warmup-iters", "1", "--lr-peak", "nan", "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        assert "lr_peak must be a finite number" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, prepared, tmp_path, capsys):
        rc = run(["train", "--shards", str(prepared / "data" / "train.tokens"),
                  "--hidden", "16", "--n-layers", "1", "--n-heads", "2",
                  "--ffn-dim", "32", "--context-len", "64", "--total-iters", "3",
                  "--warmup-iters", "1", "--seed", "-1", "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("step", -5), ("data_seed", -1)])
    def test_negative_counter_in_init_checkpoint_exits_2(self, prepared, tmp_path, capsys,
                                                         key, value):
        magic, header, payload = (prepared / "run" / "checkpoint.bin").read_bytes().split(
            b"\n", 2)
        header = json.loads(header)
        header[key] = value
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\n".join([magic, json.dumps(header).encode(), payload]))
        rc = run(["train", "--shards", str(prepared / "data" / "train.tokens"),
                  "--hidden", "32", "--n-layers", "1", "--n-heads", "2",
                  "--ffn-dim", "48", "--context-len", "64", "--batch-size", "8",
                  "--total-iters", "30", "--warmup-iters", "5", "--lr-peak", "2e-3",
                  "--lr-min", "2e-4", "--init-from", str(bad), "--out-dir", str(tmp_path / "t")])
        assert rc == 2
        assert f"{key} must be an integer >= 0, got {value}" in capsys.readouterr().err

    def test_probe_negative_seed_exits_2_naming_it(self, prepared, tmp_path, rng, capsys):
        tsv = tmp_path / "d.tsv"
        write_dataset(tsv, rng)
        rc = run(["probe", "--checkpoint", str(prepared / "run" / "checkpoint.bin"),
                  "--train-dataset", str(tsv), "--test-dataset", str(tsv), "--seed", "-1",
                  "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_sweep_non_integer_length_exits_2_naming_the_flag(self, prepared, tmp_path, capsys):
        rc = run(["sweep", "--checkpoints", str(prepared / "run" / "checkpoint.bin"),
                  "--synthetic", "length=2000", "--lengths", "8,x",
                  "--out-dir", str(tmp_path / "sw")])
        assert rc == 2
        assert "--lengths takes comma-separated integers, got '8,x'" in capsys.readouterr().err

    def test_probe_on_multilabel_dataset_exits_2(self, prepared, tmp_path, rng, capsys):
        tsv = tmp_path / "ml.tsv"
        tsv.write_text("task_kind=multilabel\tk=3\n" + "".join(
            f"{''.join(rng.choice(list('ACGT'), size=30))}\t"
            f"{','.join(map(str, rng.integers(0, 2, 3)))}\n" for _ in range(20)))
        rc = run(["probe", "--checkpoint", str(prepared / "run" / "checkpoint.bin"),
                  "--train-dataset", str(tsv), "--test-dataset", str(tsv),
                  "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "one class per row; finetune handles multilabel" in capsys.readouterr().err

    def test_finetune_epochs_below_1_exits_2(self, prepared, tmp_path, capsys):
        for n in ("0", "-1"):
            rc = run(["finetune", "--checkpoint", str(prepared / "run" / "checkpoint.bin"),
                      "--train-dataset", str(tmp_path / "tr.tsv"),
                      "--test-dataset", str(tmp_path / "te.tsv"), "--epochs", n,
                      "--out-dir", str(tmp_path / "ft")])
            assert rc == 2
            assert f"--epochs must be >= 1, got {n}" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window-len=32\nseed=5\n")
        rc = run(["prepare", "--config", str(cfg), "--synthetic", "length=6400",
                  "--seed", "7", "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        echoed = dict(line.split("=", 1) for line in
                      capsys.readouterr().out.splitlines() if "=" in line)
        assert echoed["window-len"] == "32"   # from the config file
        assert echoed["seed"] == "7"          # flag beats the file

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-such-flag=1\n")
        with pytest.raises(SystemExit) as exc:
            run(["prepare", "--config", str(cfg), "--synthetic", "length=100",
                 "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_bad_config_value_exits_2_naming_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden=abc\n")
        with pytest.raises(SystemExit) as exc:
            run(["train", "--config", str(cfg), "--shards", "x.tokens",
                 "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "'hidden'" in err

    def test_non_ascii_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("window-len=32 # \u00e9\n".encode("utf-8"))
        rc = run(["prepare", "--config", str(cfg), "--synthetic", "length=100",
                  "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_list_config_value_splits_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synthetic=length=6400 markov_order=1\nwindow-len=32\n")
        rc = run(["prepare", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "synthetic=length=6400 markov_order=1" in out.splitlines()
        assert "windows_kept=200" in out.splitlines()

    def test_one_or_more_config_value_splits(self, prepared, tmp_path, capsys):
        ckpt = prepared / "run" / "checkpoint.bin"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"checkpoints={ckpt} {ckpt}\nlengths=16\nmax-sequences=2\n")
        rc = run(["sweep", "--config", str(cfg), "--synthetic", "length=2000",
                  "--out-dir", str(tmp_path / "sw")])
        assert rc == 0
        rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # header + 2 checkpoints x 1 length

    @given(st.one_of(st.binary(max_size=120), config_text()))
    @settings(max_examples=200, deadline=None)
    def test_random_config_parses_or_exits_2(self, config_dir, data):
        path = config_dir / "fuzz.cfg"
        path.write_bytes(data)
        try:
            cli.parse_args(["train", "--config", str(path), "--shards", "x.tokens",
                            "--out-dir", "o"])
        except SystemExit as exc:
            assert exc.code == 2
        except GenelmError:
            pass

    def test_echo_is_reparseable(self, tmp_path, capsys):
        rc = run(["prepare", "--synthetic", "length=6400", "--window-len", "32",
                  "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        for line in capsys.readouterr().out.splitlines()[:10]:
            assert "=" in line


class TestPipelines:
    def test_eval_ppl_prints_metrics(self, prepared, capsys):
        rc = run(["eval-ppl", "--checkpoint", str(prepared / "run" / "checkpoint.bin"),
                  "--shards", str(prepared / "data" / "eval.tokens")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ppl=" in out and "recon_acc=" in out

    def test_sweep_cross_product(self, prepared, tmp_path, capsys):
        ckpt = str(prepared / "run" / "checkpoint.bin")
        rc = run(["sweep", "--checkpoints", ckpt, ckpt,
                  "--synthetic", "length=20000", "markov_order=1", "sharpness=2",
                  "--lengths", "8,16,32,64", "--max-sequences", "20",
                  "--out-dir", str(tmp_path / "sw")])
        assert rc == 0
        rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 8  # header + 2 checkpoints x 4 lengths
        assert (tmp_path / "sw" / "sweep.jsonl").exists()

    def test_extend_runs(self, prepared, tmp_path, capsys):
        out = tmp_path / "ext"
        rc = run(["prepare", "--synthetic", "length=60000", "markov_order=1",
                  "sharpness=2", "--window-len", "128", "--seed", "3",
                  "--out-dir", str(tmp_path / "d128")])
        assert rc == 0
        rc = run(["extend", "--checkpoint", str(prepared / "run" / "checkpoint.bin"),
                  "--shards", str(tmp_path / "d128" / "train.tokens"),
                  "--new-context-len", "128", "--total-iters", "5",
                  "--warmup-iters", "1", "--out-dir", str(out)])
        assert rc == 0
        ck = TR.load_checkpoint(out / "checkpoint.bin")
        assert ck.model_config.max_seq_len == 128
        assert ck.model_config.rope_base == pytest.approx(4e4)  # (128/64)^2 * 1e4

    def test_probe_and_embed(self, prepared, tmp_path, rng, capsys):
        train_tsv, test_tsv = tmp_path / "tr.tsv", tmp_path / "te.tsv"
        write_dataset(train_tsv, rng, 16)
        write_dataset(test_tsv, rng, 8)
        ckpt = str(prepared / "run" / "checkpoint.bin")
        rc = run(["embed", "--checkpoint", ckpt, "--dataset", str(train_tsv),
                  "--out", str(tmp_path / "X.npy")])
        assert rc == 0
        X = np.load(tmp_path / "X.npy")
        assert X.shape == (16, 32)
        rc = run(["embed", "--checkpoint", ckpt, "--dataset", str(train_tsv),
                  "--out", str(tmp_path / "Y")])  # np.save's rule: .npy appended
        assert rc == 0
        assert f"out={tmp_path / 'Y.npy'}" in capsys.readouterr().out
        assert np.array_equal(np.load(tmp_path / "Y.npy"), X)
        rc = run(["probe", "--checkpoint", ckpt, "--train-dataset", str(train_tsv),
                  "--test-dataset", str(test_tsv), "--out", str(tmp_path / "m.json")])
        assert rc == 0
        record = json.loads((tmp_path / "m.json").read_text())
        assert "f1_macro" in record

    def test_train_without_steps_exits_0(self, prepared, tmp_path, capsys):
        model = ["--shards", str(prepared / "data" / "train.tokens"),
                 "--hidden", "32", "--n-layers", "1", "--n-heads", "2",
                 "--ffn-dim", "48", "--context-len", "64"]
        # resuming a checkpoint that is already at --total-iters
        rc = run(["train", *model, "--init-from", str(prepared / "run" / "checkpoint.bin"),
                  "--batch-size", "8", "--total-iters", "30", "--warmup-iters", "5",
                  "--lr-peak", "2e-3", "--lr-min", "2e-4", "--out-dir", str(tmp_path / "a")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "(no steps)"
        rc = run(["train", *model, "--total-iters", "0", "--warmup-iters", "0",
                  "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "(no steps)"
        assert TR.load_checkpoint(tmp_path / "b" / "checkpoint.bin").step == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf blowup is the point
    def test_divergence_exits_1(self, prepared, tmp_path, capsys):
        rc = run(["train", "--shards", str(prepared / "data" / "train.tokens"),
                  "--hidden", "32", "--n-layers", "1", "--n-heads", "2",
                  "--ffn-dim", "48", "--context-len", "64",
                  "--batch-size", "4", "--total-iters", "50",
                  "--warmup-iters", "1", "--lr-peak", "1e12", "--lr-min", "1e12",
                  "--out-dir", str(tmp_path / "blow")])
        assert rc == 1
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_infinite_loss_exits_1(self, prepared, tmp_path, capsys):
        cfg = ModelConfig(hidden=32, n_layers=1, n_heads=2, ffn_dim=48, max_seq_len=64)
        init = tmp_path / "inf.bin"
        TR.save_checkpoint(infinite_loss_checkpoint(cfg, TR.TrainConfig()), init)
        rc = run(["train", "--shards", str(prepared / "data" / "train.tokens"),
                  "--hidden", "32", "--n-layers", "1", "--n-heads", "2",
                  "--ffn-dim", "48", "--context-len", "64", "--batch-size", "4",
                  "--total-iters", "3", "--warmup-iters", "0", "--init-from", str(init),
                  "--out-dir", str(tmp_path / "t")])
        assert rc == 1
        assert "training diverged: step 1: infinite loss" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eval_ppl_of_an_overflowing_model_is_inf(self, prepared, tmp_path, capsys):
        # its mean NLL is ~1e38 nats, where math.exp raised OverflowError
        cfg = ModelConfig(hidden=32, n_layers=1, n_heads=2, ffn_dim=48, max_seq_len=64)
        ckpt = tmp_path / "inf.bin"
        TR.save_checkpoint(infinite_loss_checkpoint(cfg, TR.TrainConfig()), ckpt)
        rc = run(["eval-ppl", "--checkpoint", str(ckpt),
                  "--shards", str(prepared / "data" / "eval.tokens"),
                  "--out", str(tmp_path / "ppl.jsonl")])
        assert rc == 0
        assert "ppl=inf " in capsys.readouterr().out
        assert json.loads((tmp_path / "ppl.jsonl").read_text())["ppl"] == math.inf

    def test_finetune_head_only_keeps_backbone(self, prepared, tmp_path, rng):
        train_tsv, test_tsv = tmp_path / "tr.tsv", tmp_path / "te.tsv"
        write_dataset(train_tsv, rng, 16)
        write_dataset(test_tsv, rng, 8)
        ckpt_path = prepared / "run" / "checkpoint.bin"
        out = tmp_path / "ft"
        rc = run(["finetune", "--checkpoint", str(ckpt_path),
                  "--train-dataset", str(train_tsv), "--test-dataset", str(test_tsv),
                  "--mode", "head_only", "--epochs", "1",
                  "--out-dir", str(out)])
        assert rc == 0
        before = TR.load_checkpoint(ckpt_path)
        after = TR.load_checkpoint(out / "finetuned.bin")
        for name, a in before.params.items():
            assert np.array_equal(after.params[name], a), name
        # the finetuned file's layout: backbone, then the head; no moments
        assert list(after.params) == [*before.params, "classifier.w", "classifier.b"]
        assert after.params["classifier.w"].shape == (32, 2)
        assert after.moments is None
        assert after.train_config == TR.finetune_config(2, batch_size=8)
        assert (after.step, after.stage, after.data_seed) == (2, before.stage,
                                                              before.data_seed)
        record = json.loads((out / "metrics.json").read_text())
        assert record["mode"] == "head_only"
