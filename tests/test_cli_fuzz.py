"""Whole-CLI fuzzer: argv built from `build_parser()`'s real subcommands
and flags, run by `cli.main` over small valid and corrupted input files.
Every run must exit 0, 1 or 2 without a traceback, whatever the input.

Every flag that sets a size (widths, context, steps, epochs, synthetic
lengths and Markov orders) takes a small value, and the subcommands
that read a model read one of hidden 8, so no run allocates more than a
few MiB.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mutated
from genelm import cli

# flags that name an input file -> the kind of file they expect
INPUTS = {"fasta": "fasta", "shards": "shard", "init_from": "checkpoint",
          "checkpoint": "checkpoint", "checkpoints": "checkpoint", "dataset": "tsv",
          "train_dataset": "tsv", "test_dataset": "tsv", "config": "config"}
OUTPUTS = {"out_dir": "o", "out": "o.out"}
# every other flag's (valid, invalid) candidate values; floats by default
VALUES = {
    "hidden": (["8", "16"], ["-1", "0", "4", "x"]), "n_layers": (["1", "2"], ["0", "-1"]),
    "n_heads": (["1", "2"], ["0", "3"]), "ffn_dim": (["4", "8"], ["0", "-2"]),
    "context_len": (["8", "16"], ["1", "17", "-8"]),
    "batch_size": (["1", "2", "3"], ["-1", "0"]), "warmup_iters": (["0"], ["-1", "3"]),
    "total_iters": (["0", "1", "2"], ["-1", "2.5"]), "epochs": (["1"], ["-1", "0"]),
    "seed": (["0", "7"], ["-1", "x"]), "window_len": (["8", "16", "32"], ["-1", "0", "1"]),
    "new_context_len": (["32"], ["0", "8", "64"]), "max_sequences": (["1", "3"], ["-1", "0"]),
    "layer": (["0"], ["-1", "5"]), "lengths": (["8", "8,16", "64"], ["0", "-4", "x", "", "8,,16"]),
    "eval_holdout": (["r1", "r1,r2"], ["", "nope"]),
    "rope_base": (["10", "1e4"], ["nan", "-1", "0", "1e400"]),
    "new_rope_base": (["10", "1e4"], ["nan", "-1", "0", "1e400"]),
}
FLOATS = (["0", "1e-3", "0.5"], ["nan", "inf", "-inf", "-1", "2", "1e39", "x"])
# flags always given: their defaults size a desk-scale run, or (warmup) exceed
# the small step counts
ALWAYS = ("hidden", "n_layers", "ffn_dim", "context_len", "total_iters", "warmup_iters",
          "epochs")
SYNTHETIC = {"length": (["100", "2000"], ["-5", "0", "1", "x"]),
             "markov_order": (["0", "1", "3"], ["-1", "x"]),
             "sharpness": (["0", "2"], FLOATS[1]), "seed": (["0", "3"], ["-1", "x"]),
             "junk": ([], ["1"])}


def quiet_main(argv):
    """(exit code, stderr) of one `cli.main` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small valid files, by kind."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    rng = np.random.default_rng(5)
    fasta = root / "g.fa"
    fasta.write_text("".join(f">r{i}\n{''.join(rng.choice(list('ACGTN'), 400))}\n"
                             for i in (1, 2)))
    shards = {}
    for width in (16, 32):
        code, err = quiet_main(["prepare", "--fasta", str(fasta), "--window-len", str(width),
                                "--eval-fraction", "0.2", "--out-dir", str(root / f"d{width}")])
        assert code == 0, err
        shards[width] = root / f"d{width}" / "train.tokens"
    code, err = quiet_main(["train", "--shards", str(shards[16]), "--hidden", "8",
                            "--n-layers", "1", "--n-heads", "2", "--ffn-dim", "8",
                            "--context-len", "16", "--batch-size", "4", "--total-iters", "2",
                            "--warmup-iters", "1", "--out-dir", str(root / "run")])
    assert code == 0, err
    tsv = root / "set.tsv"
    tsv.write_text("task_kind=binary\tk=2\n" + "".join(
        f"{''.join(rng.choice(list('ACGT'), 20))}\t{i % 2}\n" for i in range(6)))
    config = root / "run.cfg"
    config.write_text("seed=1\n")
    return {"fasta": [fasta], "shard": [shards[16]], "long shard": [shards[32]],
            "checkpoint": [root / "run" / "checkpoint.bin"], "tsv": [tsv], "config": [config]}


class Argv:
    """Draws one run's flag values. A clean run draws only valid values
    and files; a noisy one draws an invalid value one time in eight and
    an unusable file one time in four."""

    def __init__(self, data, inputs, work, kinds):
        self.data, self.inputs, self.work, self.kinds = data, inputs, work, kinds
        self.clean = data.draw(st.booleans())

    def one_in(self, n: int) -> bool:
        return not self.clean and self.data.draw(st.sampled_from([True] + [False] * (n - 1)))

    def pick(self, pools) -> str:
        good, bad = pools
        return self.data.draw(st.sampled_from(bad if not good or self.one_in(8) else good))

    def path(self, kind: str) -> str:
        """A valid file of the kind; or one corrupted, a file of another
        kind, a missing path or a directory."""
        data = self.data
        how = data.draw(st.sampled_from(["corrupt", "corrupt", "other", "missing", "dir"])
                        ) if self.one_in(4) else "valid"
        if how in ("valid", "corrupt"):
            path = data.draw(st.sampled_from(self.inputs[kind]))
            if how == "valid":
                return str(path)
            bad = self.work / f"bad-{kind}-{len(list(self.work.iterdir()))}"
            bad.write_bytes(data.draw(mutated(path.read_bytes())))
            return str(bad)
        if how == "other":
            return str(data.draw(st.sampled_from(
                [p for k, ps in self.inputs.items() if k != kind for p in ps])))
        return str(self.work / "missing") if how == "missing" else str(self.work)

    def values(self, action) -> list[str]:
        dest = action.dest
        if dest in self.kinds:
            n = self.data.draw(st.integers(1, 2)) if action.nargs == "+" else 1
            return [self.path(self.kinds[dest]) for _ in range(n)]
        if dest in OUTPUTS:
            return [str(self.work / OUTPUTS[dest])]
        if dest == "synthetic":
            keys = self.data.draw(st.lists(st.sampled_from(list(SYNTHETIC)), max_size=3))
            return [f"{k}={self.pick(SYNTHETIC[k])}" for k in ["length", *keys]]
        if action.choices:
            return [self.pick((list(action.choices), ["bogus"]))]
        return [self.pick(VALUES.get(dest, FLOATS))]

    def config(self, sub) -> str:
        """A config file of key=value lines over the subcommand's own
        flags, written whole or corrupted."""
        actions = [a for a in sub._actions
                   if a.dest not in ("help", "config", *INPUTS, *OUTPUTS)]
        lines = [f"{a.option_strings[-1].lstrip('-')}={' '.join(self.values(a))}"
                 for a in self.data.draw(st.lists(st.sampled_from(actions), max_size=4))]
        text = "\n".join(lines).encode("ascii")
        path = self.work / "fuzz.cfg"
        path.write_bytes(self.data.draw(mutated(text)) if self.one_in(2) else text)
        return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing runs are expected
@given(st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_argv_exits_0_1_or_2_without_traceback(inputs, tmp_path_factory, data):
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    command = data.draw(st.sampled_from([*subparsers] * 4 + ["bogus"]))
    argv = [command]
    if command in subparsers:
        runs = tmp_path_factory.getbasetemp() / "cli-fuzz-runs"
        runs.mkdir(exist_ok=True)
        # extend reads windows as long as its new context
        kinds = dict(INPUTS, shards="long shard") if command == "extend" else INPUTS
        draw = Argv(data, inputs, Path(tempfile.mkdtemp(dir=runs)), kinds)
        sub = subparsers[command]
        # prepare and sweep take exactly one of --fasta and --synthetic
        source = "both" if draw.one_in(4) else data.draw(st.sampled_from(["fasta", "synthetic"]))
        for action in sub._actions:
            if action.dest == "help":
                argv += ["--help"] if draw.one_in(20) else []
                continue
            if action.dest in ("fasta", "synthetic"):
                if source not in (action.dest, "both"):
                    continue
            elif not (action.required or action.dest in ALWAYS or action.dest in OUTPUTS
                      or data.draw(st.sampled_from([True, False, False, False]))):
                continue
            if action.dest == "config" and data.draw(st.booleans()):
                values = [draw.config(sub)]
            else:
                values = draw.values(action)
            argv += [action.option_strings[-1], *values]
        if draw.one_in(10):
            argv.append(data.draw(st.sampled_from(["--nope", "extra", "--seed"])))
    code, err = quiet_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
