"""One benchmark phase, run in a process of its own so that its peak RSS is
its own.

    python3 perfbench/phases.py '<json spec>'

The spec names the phase, its inputs and outputs and whether to trace. The
phase loads its inputs and runs one warm-up that no rate counts. Untraced,
it then answers each `turn <seconds>` line on standard input by running
rounds for at least that long (at least one) and printing one JSON line of
their timed (work, seconds) samples, until any other line or end of input;
the orchestrator interleaves the turns of all phases of a run. Traced, it
runs an untraced, a traced and another untraced cycle of rounds by itself.
Either way its last line is a JSON object with the outputs the checks
need, its peak RSS and, when traced, the per-layer accumulators.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import replace


def _load_model(spec):
    from genelm import trainer as TR
    ckpt = TR.load_checkpoint(spec["checkpoint"])
    if spec.get("extend_to"):
        ckpt = TR.prepare_extension(ckpt, spec["extend_to"])
    return ckpt.build_model(), ckpt.model_config.rope_base


class Prepare:
    """FASTA -> windows -> train/eval split -> encoded shards on disk."""

    groups = 1

    def __init__(self, spec):
        self.spec = spec
        self.outputs = {}

    def warmup(self):
        self.round(0)  # writes the shards the other phases read
        return 1

    def round(self, k):
        from genelm import genome_io as G, tokenizer as T
        s = self.spec
        t0 = time.perf_counter()
        records = G.parse_fasta(s["fasta"])
        windows = G.extract_windows(records, s["window_len"])
        del records
        train, held = G.split_train_eval(windows, s["eval_fraction"], s["seed"])
        T.write_shard(s["train_shard"], T.encode_windows(train.windows))
        T.write_shard(s["eval_shard"], T.encode_windows(held.windows))
        return [(windows.source_stats.total_bp_read, time.perf_counter() - t0)], 1


class Train:
    """A fixed number of training steps, from scratch or as a context
    extension of a checkpoint. Rate runs take one step per round by
    resuming the run one step per call, which the program guarantees to be
    bit-identical to one uninterrupted call, so every step is a sample of
    its own; traced runs make the one uninterrupted call, so the step
    loop's own overhead is what they see."""

    def __init__(self, spec):
        from genelm import tokenizer as T, trainer as TR
        from genelm.model import ModelConfig
        self.spec = spec
        self.data = T.read_shard(spec["shard"])
        self.tcfg = TR.TrainConfig(**spec["train_config"])
        if spec.get("extend_to"):
            self.start = TR.load_checkpoint(spec["checkpoint"])
            self.ctx = spec["extend_to"]
        else:
            self.start = None
            self.mcfg = ModelConfig(**spec["model_config"])
            self.ctx = self.mcfg.max_seq_len
        # a cycle is one whole training run: one uninterrupted call when
        # traced, otherwise one step per round
        self.groups = 1 if spec["trace"] else self.tcfg.total_iters
        self.resume, self.rows = None, []
        self.outputs = {}

    def _run(self, tcfg, stop_at_step=None, resume=None):
        from genelm import trainer as TR
        if resume is not None:
            return TR.train_stage(resume.model_config, tcfg, self.data, start=resume,
                                  stage_index=resume.stage, stop_at_step=stop_at_step)
        if self.start is None:
            seed = self.spec["seed"]
            return TR.train_stage(self.mcfg, tcfg, self.data, data_seed=seed,
                                  init_seed=seed, stop_at_step=stop_at_step)
        if stop_at_step is None:
            return TR.extend_context(self.start, self.ctx, None, tcfg, self.data)
        prep = replace(TR.prepare_extension(self.start, self.ctx), train_config=tcfg)
        return self._run(tcfg, stop_at_step, prep)

    def warmup(self):
        self._run(replace(self.tcfg, total_iters=1, warmup_iters=0))
        return 1

    def round(self, k):
        step_work = self.tcfg.batch_size * self.ctx
        if self.spec["trace"]:
            self.ckpt, rows = self._run(self.tcfg)
            self.outputs["losses"] = [r["loss"] for r in rows]
            return [], len(rows)
        i = k % self.tcfg.total_iters
        t0 = time.perf_counter()
        self.resume, rows = self._run(self.tcfg, i + 1, self.resume if i else None)
        seconds = time.perf_counter() - t0
        self.rows = (self.rows if i else []) + rows
        if i + 1 == self.tcfg.total_iters:  # every run is the same; keep one
            self.ckpt = self.resume
            self.outputs["losses"] = [r["loss"] for r in self.rows]
        return [(step_work, seconds)], 1

    def finish(self):
        from genelm import trainer as TR
        s = self.spec
        TR.save_checkpoint(self.ckpt, s["out_checkpoint"])
        TR.save_checkpoint(TR.load_checkpoint(s["out_checkpoint"]), s["out_checkpoint"] + ".again")
        self.outputs["rope_base"] = self.ckpt.model_config.rope_base
        if self.start is not None:
            self.outputs["start_rope_base"] = self.start.model_config.rope_base


class Score:
    """Token scoring, one group of inputs per round: `corpus_stats` over
    shard windows, or a `length_sweep` over one FASTA record."""

    def __init__(self, spec):
        from genelm import genome_io as G, tokenizer as T
        self.spec = spec
        self.model, base = _load_model(spec)
        self.outputs = {"rope_base": base}
        if spec.get("lengths"):
            self.inputs = [[r] for r in G.parse_fasta(spec["fasta"])]
        else:
            seqs = list(T.read_shard(spec["shard"])[:spec["n_sequences"]])
            k = spec["per_round"]
            self.inputs = [seqs[i:i + k] for i in range(0, len(seqs), k)]
        self.groups = len(self.inputs)
        self.outputs["groups"] = [None] * self.groups

    def warmup(self):
        from genelm import evaluator as E
        if self.spec.get("lengths"):
            report = E.length_sweep([("warmup", self.model)], self.inputs[0],
                                    self.spec["lengths"], max_sequences=2)
            return sum(r.n_sequences for r in report.rows)
        E.corpus_stats(self.model, [self.inputs[0][0][:1024]])
        return 1

    def round(self, k):
        from genelm import evaluator as E
        group = self.inputs[k % self.groups]
        t0 = time.perf_counter()
        if self.spec.get("lengths"):
            report = E.length_sweep([("bench", self.model)], group, self.spec["lengths"],
                                    max_sequences=self.spec["max_sequences"])
            seconds = time.perf_counter() - t0
            out = [vars(r) for r in report.rows]
            n = sum(r.n_sequences for r in report.rows)
            work = sum(r.n_sequences * r.eval_length for r in report.rows)
        else:
            out = E.corpus_stats(self.model, group)
            seconds = time.perf_counter() - t0
            n, work = len(group), sum(len(x) for x in group)
        self.outputs["groups"][k % self.groups] = out
        return [(work, seconds)], n


class Embed:
    """Max-pooled embeddings through `embed_dataset` and its default worker
    pool, one group of the dataset's sequences per round."""

    def __init__(self, spec):
        from genelm import downstream as D
        self.spec = spec
        self.model, base = _load_model(spec)
        seqs = D.load_labeled_dataset(spec["dataset"]).sequences
        k = spec["per_round"]
        self.inputs = [seqs[i:i + k] for i in range(0, len(seqs), k)]
        self.groups = len(self.inputs)
        self.embeddings = [None] * self.groups
        self.outputs = {"rope_base": base}

    def warmup(self):
        from genelm import downstream as D
        D.embed_dataset(self.model, [s[:1024] for s in self.inputs[0][:2]])
        return 2

    def round(self, k):
        from genelm import downstream as D
        group = self.inputs[k % self.groups]
        t0 = time.perf_counter()
        self.embeddings[k % self.groups] = D.embed_dataset(self.model, group)
        return [(len(group), time.perf_counter() - t0)], len(group)

    def finish(self):
        import numpy as np
        np.save(self.spec["out_embeddings"], np.concatenate(self.embeddings))


class Setup:
    """Only the set-up every phase pays: loading the workload's inputs."""

    def __init__(self, spec):
        from genelm import downstream as D, tokenizer as T
        T.read_shard(spec["shard"])
        _load_model(spec)
        D.load_labeled_dataset(spec["dataset"])


PHASES = {"prepare": Prepare, "train": Train, "score": Score, "embed": Embed,
          "setup": Setup}


def _cycle(phase) -> tuple[int, float]:
    """One round per input group, every distinct input once:
    (operations, seconds)."""
    t0 = time.perf_counter()
    ops = sum(phase.round(k)[1] for k in range(phase.groups))
    return ops, time.perf_counter() - t0


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    if spec["phase"] in ("generate", "embed_from_eval", "check"):
        from workload import TASKS
        print(json.dumps(TASKS[spec["phase"]](spec)))
        return 0
    t0 = time.perf_counter()
    import genelm.cli  # noqa: F401  (what any use of the program imports first)
    import_ms = (time.perf_counter() - t0) * 1e3

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        phase = PHASES[spec["phase"]](spec)
    finally:
        if tracer:
            tracer.uninstall()
    if spec["phase"] == "setup":
        return 0
    warmup_ops = phase.warmup()
    finish = getattr(phase, "finish", lambda: None)
    if tracer:
        # the traced cycle between two untraced ones, which give the time
        # it is compared with; set-up and finish are traced too, since
        # loading and saving are layers of their own
        n_before, before = _cycle(phase)
        tracer.install()
        try:
            n_traced, traced = _cycle(phase)
            finish()
        finally:
            tracer.uninstall()
        n_after, after = _cycle(phase)
        result = {"ops": warmup_ops + n_before + n_traced + n_after,
                  "untraced_seconds": (before + after) / 2, "traced_seconds": traced,
                  "traced_ops": n_traced, "trace": tracer.raw()}
    else:
        # serve rounds on request, so the orchestrator can interleave the
        # phases of a run in time
        _reply({"ops": warmup_ops, "groups": phase.groups})
        k = 0
        for line in sys.stdin:
            cmd = line.split()
            if not cmd or cmd[0] != "turn":
                break
            samples, ops, t0 = [], 0, time.perf_counter()
            while not samples or time.perf_counter() - t0 < float(cmd[1]):
                s, n = phase.round(k)
                samples += s
                ops += n
                k += 1
            _reply({"samples": samples, "ops": ops, "rounds": len(samples)})
        finish()
        result = {}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(outputs=phase.outputs, import_ms=import_ms,
                  peak_rss_mb=(own + forked) / 1024.0)
    _reply(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
