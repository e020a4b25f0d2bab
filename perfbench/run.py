"""The genelm benchmark: three workloads, each run as a pipeline of phases
(prepare -> train -> score -> embed), every phase in a process of its own.

    python3 perfbench/run.py --workload pretrain-512 --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all            # every workload, defaults

Run from the repository root; the program is imported from ./src. Inputs
are generated from --seed. The phase processes run side by side, taking
turns of whole rounds of the same operations, until --seconds of turns
are used. With --trace 0 the last line of standard output is the result
with the end-to-end metrics, with --trace 1 the per-layer metrics from a
traced run (see README.md). The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 7
TURNS = 8  # turns per phase: each phase's samples spread over the whole run
GAP_S = 0.15  # pause before each turn

# The embed pool is pinned to one worker: the default pool (one forked
# worker per core, each with a full BLAS thread pool) oversubscribes the
# cores and its timings swing by a factor of several from run to run.
CHILD_ENV = {"GENELM_THREADS": "1"}

WORKLOADS = {
    # The everyday training step at the desk default, fed by a genome large
    # enough that prepare's memory is set by the genome, not the interpreter.
    "pretrain-512": {
        "genome": {"order": 2, "sharpness": 2.0, "lower_per_mbp": 200, "n_per_mbp": 20,
                   "record_bp": [5_000_000, 4_000_000, 4_000_000, 3_000_000],
                   "widths": [60, 70, 80, 61]},
        "window_len": 512, "eval_fraction": 0.01,
        "train": {"model_config": {},
                  "train_config": {"batch_size": 8, "warmup_iters": 2, "total_iters": 8}},
        "loss_must_decrease": True,
        "score": {"n_sequences": 16, "per_round": 4},
        "embed": {"n": 16, "per_round": 4, "lengths": [512, 512]},
        "shares": {"prepare": 0.25, "train": 0.35, "score": 0.17, "embed": 0.18, "setup": 0.05},
    },
    # Extension 512 -> 2048 with backward, then scoring and embedding at
    # 4096, where the t^2 attention term dominates time and memory.
    "longctx-4k": {
        "genome": {"order": 2, "sharpness": 2.0, "lower_per_mbp": 200, "n_per_mbp": 2,
                   "record_bp": [700_000, 500_000], "widths": [60, 80]},
        "window_len": 4096, "eval_fraction": 0.05,
        "model_context": 2048,
        "train": {"extend_to": 2048,
                  "train_config": {"batch_size": 1, "warmup_iters": 1, "total_iters": 4,
                                   "lr_peak": 1e-4, "lr_min": 4e-5}},
        "loss_must_decrease": False,
        "score": {"n_sequences": 2, "per_round": 1, "extend_to": 4096},
        "embed": {"from_eval": 2, "per_round": 1, "extend_to": 4096},
        "shares": {"prepare": 0.1, "train": 0.25, "score": 0.3, "embed": 0.3, "setup": 0.05},
    },
    # Short inputs where per-call overhead, one-sequence-per-forward
    # scoring, chunking and the worker pool dominate; attention is small.
    "many-short": {
        "genome": {"order": 2, "sharpness": 2.0, "lower_per_mbp": 200, "n_per_mbp": 0,
                   "record_bp": [50_000] * 8, "widths": [60, 70, 80, 61] * 2},
        "window_len": 256, "eval_fraction": 0.05,
        "train": {"model_config": {"max_seq_len": 128},
                  "train_config": {"batch_size": 8, "warmup_iters": 2, "total_iters": 12}},
        "loss_must_decrease": False,
        "score": {"lengths": [64, 128, 256], "max_sequences": 12},
        "embed": {"n": 32, "per_round": 4, "lengths": [100, 1200]},
        "shares": {"prepare": 0.1, "train": 0.25, "score": 0.3, "embed": 0.3, "setup": 0.05},
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("prepare.bp_per_s", "bp/s"),
    ("prepare.peak_rss_mb", "MiB"),
    ("train.tokens_per_s", "tokens/s"),
    ("train.peak_rss_mb", "MiB"),
    ("train.loss_end", "nats"),
    ("score.tokens_per_s", "tokens/s"),
    ("score.peak_rss_mb", "MiB"),
    ("embed.seqs_per_s", "seqs/s"),
    ("embed.peak_rss_mb", "MiB"),
)


class BenchError(Exception):
    """A phase failed or the program is missing; the run prints no result."""


def run_task(phase: str, spec: dict, env: dict) -> dict:
    """A child that runs to its end and prints one JSON line."""
    spec = dict(spec, phase=phase, src=str(SRC))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "phases.py"), json.dumps(spec)],
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{phase} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]) if phase != "setup" else {}


class Phase:
    """A phase process that serves timed rounds on request."""

    def __init__(self, name: str, spec: dict, env: dict, log: Path, turn_s: float):
        self.name, self.log, self.turn_s = name, log, turn_s
        with open(log, "w", encoding="ascii") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "phases.py"), json.dumps(dict(spec, phase=name, src=str(SRC)))],
                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True)
        ready = self._read()
        self.samples, self.ops, self.rounds, self.used = [], ready["ops"], 0, 0.0
        self.groups = ready["groups"]  # rounds that visit every input once

    def _read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise BenchError(f"{self.name} phase stopped answering:\n"
                             f"{self.log.read_text(encoding='ascii', errors='replace')[-4000:]}")
        return json.loads(line)

    def _send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def turn(self) -> None:
        t0 = time.perf_counter()
        self._send(f"turn {self.turn_s}")
        reply = self._read()
        self.used += time.perf_counter() - t0
        self.samples += reply["samples"]
        self.ops += reply["ops"]
        self.rounds += reply["rounds"]

    def finish(self) -> dict:
        self._send("finish")
        out = self._read()
        self.proc.wait(CHILD_TIMEOUT_S)
        return dict(out, samples=self.samples, ops=self.ops + out.get("ops", 0))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class SetupProbe:
    """Turns that each time a process which only starts, imports the
    program and loads the workload's inputs."""

    groups = SETUP_PROBES

    def __init__(self, spec: dict, env: dict):
        self.spec, self.env = spec, env
        self.samples, self.ops, self.rounds, self.used = [], 0, 0, 0.0

    def turn(self) -> None:
        t0 = time.perf_counter()
        run_task("setup", self.spec, self.env)
        seconds = time.perf_counter() - t0
        self.used += seconds
        self.samples.append(seconds)
        self.rounds += 1


def interleave(turns: dict, shares: dict, seconds: float) -> None:
    """Give turns to whichever phase has used the least of its share, so
    each phase's samples spread over the whole run, until `seconds` are
    used and every phase has visited each of its input groups. A pause precedes each
    turn: OpenBLAS worker threads spin for about 0.1-0.2 s after a call
    before they sleep, and one process's spinning threads would slow the
    next process's turn (to twice its time when the turn is short)."""
    while True:
        pending = [n for n, t in turns.items() if t.rounds < t.groups]
        if sum(t.used for t in turns.values()) >= seconds:
            if not pending:
                return
        else:
            pending = list(turns)
        name = min(pending, key=lambda n: turns[n].used / shares[n])
        time.sleep(GAP_S)
        turns[name].turn()


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    w = WORKLOADS[name]
    env = dict(os.environ, **CHILD_ENV)
    p = lambda f: str(work / f)
    task = dict(seed=seed, workload=w, work=str(work))
    s, t, e = w["score"], w["train"], w["embed"]
    specs = {
        "prepare": dict(fasta=p("genome.fa"), window_len=w["window_len"],
                        eval_fraction=w["eval_fraction"], train_shard=p("train.tokens"),
                        eval_shard=p("eval.tokens")),
        "train": dict(shard=p("train.tokens"), model_config=t.get("model_config"),
                      train_config=dict(t["train_config"], seed=seed),
                      extend_to=t.get("extend_to"), checkpoint=p("init.ckpt"),
                      out_checkpoint=p("trained.ckpt")),
        "score": dict(checkpoint=p("model.ckpt"), extend_to=s.get("extend_to"),
                      shard=p("eval.tokens"), n_sequences=s.get("n_sequences"),
                      per_round=s.get("per_round"), fasta=p("genome.fa"),
                      lengths=s.get("lengths"), max_sequences=s.get("max_sequences")),
        "embed": dict(checkpoint=p("model.ckpt"), extend_to=e.get("extend_to"),
                      dataset=p("embed.tsv"), per_round=e["per_round"],
                      out_embeddings=p("embeddings.npy")),
    }
    for spec in specs.values():
        spec.update(seed=seed, trace=trace)

    clock = {"start": time.perf_counter()}
    environment = run_task("generate", task, env)["environment"]
    clock["generated"] = time.perf_counter()
    phases, setup = {}, []
    if trace:
        for n, spec in specs.items():
            if n == "score" and "from_eval" in e:
                run_task("embed_from_eval", task, env)
            phases[n] = run_task(n, spec, env)
    else:
        start = lambda n: Phase(n, specs[n], env, work / f"{n}.log",
                                w["shares"][n] * seconds / TURNS)
        running = {}
        try:
            running["prepare"] = start("prepare")  # its warm-up writes the shards
            if "from_eval" in e:
                run_task("embed_from_eval", task, env)
            for n in ("train", "score", "embed"):
                running[n] = start(n)
            probe = SetupProbe(dict(seed=seed, trace=False, shard=p("train.tokens"),
                                    checkpoint=p("model.ckpt"), extend_to=s.get("extend_to"),
                                    dataset=p("embed.tsv")), env)
            clock["started"] = time.perf_counter()
            interleave({**running, "setup": probe}, w["shares"], seconds)
            clock["measured"] = time.perf_counter()
            for n, ph in running.items():
                phases[n] = ph.finish()
        finally:
            for ph in running.values():
                ph.close()
        setup = probe.samples

    clock["finished"] = time.perf_counter()
    failures = run_task("check", dict(task, outputs={k: v["outputs"] for k, v in phases.items()}),
                        env)["failures"]
    clock["checked"] = time.perf_counter()
    marks = list(clock.items())
    wall = {b: round(tb - ta, 3) for (_, ta), (b, tb) in zip(marks, marks[1:])}
    return {"correct": not failures, "attempted": sum(ph["ops"] for ph in phases.values()),
            "failed": 0, "failures": failures, "phases": phases, "setup_s": setup,
            "environment": environment, "wall_s": wall,
            "metrics": per_layer(phases) if trace else end_to_end(phases, setup)}


def _best_rate(ph: dict) -> float:
    """The fastest sample's rate: the least time per unit of work, as
    timeit reports it. On the 2-vCPU host these figures come from, the same
    code runs up to 1.6x slower while the host is busy, in stretches of a
    fraction of a second to tens of seconds; how much of a run is slow
    changes from run to run and moves any median or quartile of it, while
    dozens of short samples spread over the run almost always include
    one taken at full speed."""
    return max(work / seconds for work, seconds in ph["samples"])


def _fast_quartile(times: list[float]) -> float:
    """The lower quartile of a few set-up times."""
    return statistics.quantiles(times, n=4, method="inclusive")[0]


def end_to_end(ph: dict, setup: list[float]) -> dict:
    values = {
        "setup_s": _fast_quartile(setup),
        "prepare.bp_per_s": _best_rate(ph["prepare"]),
        "prepare.peak_rss_mb": ph["prepare"]["peak_rss_mb"],
        "train.tokens_per_s": _best_rate(ph["train"]),
        "train.peak_rss_mb": ph["train"]["peak_rss_mb"],
        "train.loss_end": ph["train"]["outputs"]["losses"][-1],
        "score.tokens_per_s": _best_rate(ph["score"]),
        "score.peak_rss_mb": ph["score"]["peak_rss_mb"],
        "embed.seqs_per_s": _best_rate(ph["embed"]),
        "embed.peak_rss_mb": ph["embed"]["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(ph: dict) -> dict:
    """Per-layer metrics from the traced rounds and traced set-up of every
    phase; see README.md for what each one should move."""
    raw = {k: v["trace"] for k, v in ph.items()}
    model_phases = [raw["train"], raw["score"], raw["embed"]]
    every = list(raw.values())

    def ms(name, among=every):
        return sum(r["ms"].get(name, 0.0) for r in among)

    def calls(name, among=every):
        return sum(r["calls"].get(name, 0) for r in among)

    def per_call(name):
        return ms(name) / max(calls(name), 1)

    prep, train = [raw["prepare"]], [raw["train"]]
    steps = ph["train"]["traced_ops"]
    step = {
        "forward_ms": ms("model.forward", train) + ms("kernels.cross_entropy.fwd", train),
        "backward_ms": ms("kernels.backward", train),
        "clip_ms": ms("trainer.clip", train),
        "adamw_ms": ms("trainer.adamw_step", train),
    }
    step["other_ms"] = ph["train"]["traced_seconds"] * 1e3 - sum(step.values())
    attn_ms = ms("kernels.causal_attention.fwd", model_phases)
    untraced = sum(v["untraced_seconds"] for v in ph.values())
    traced = sum(v["traced_seconds"] for v in ph.values())

    m = {
        "genome_io.parse_fasta_ms": (ms("genome_io.parse_fasta", prep), "ms"),
        "genome_io.extract_windows_ms": (ms("genome_io.extract_windows", prep), "ms"),
        "genome_io.split_ms": (ms("genome_io.split", prep), "ms"),
        "tokenizer.encode_windows_ms": (ms("tokenizer.encode_windows", prep), "ms"),
        "tokenizer.write_shard_ms": (ms("tokenizer.write_shard", prep), "ms"),
        "tokenizer.read_shard_ms": (ms("tokenizer.read_shard", train), "ms"),
        "kernels.causal_attention.fwd_peak_mb": (
            max(r["attn_peak_bytes"] for r in model_phases) / 2 ** 20, "MiB"),
        "kernels.causal_attention.gflops_per_s": (
            sum(r["attn_flops"] for r in model_phases) / max(attn_ms, 1e-9) / 1e6, "GFLOP/s"),
    }
    for op in ("causal_attention", "matmul", "rmsnorm", "rope_rotate", "silu",
               "embedding", "cross_entropy"):
        m[f"kernels.{op}.fwd_ms"] = (ms(f"kernels.{op}.fwd", model_phases), "ms")
        m[f"kernels.{op}.bwd_ms"] = (ms(f"kernels.{op}.bwd", model_phases), "ms")
    m.update({
        "kernels.backward.ms": (ms("kernels.backward", model_phases), "ms"),
        "kernels.backward.nodes": (
            sum(r["backward_nodes"] for r in model_phases)
            / max(calls("kernels.backward", model_phases), 1), "count"),
        "model.attention_block.fwd_ms": (ms("model.attention_block", model_phases), "ms"),
        "model.ffn_block.fwd_ms": (ms("model.ffn_block", model_phases), "ms"),
        "model.forward.ms": (ms("model.forward", model_phases), "ms"),
        "model.forward_hidden.ms": (ms("model.forward_hidden", model_phases), "ms"),
        "model.lm_head.ms": (ms("model.lm_head", model_phases), "ms"),
    })
    for k, v in step.items():
        m[f"trainer.step.{k}"] = (v / steps, "ms")
    m.update({
        "trainer.save_checkpoint_ms": (per_call("trainer.save_checkpoint"), "ms"),
        "trainer.load_checkpoint_ms": (per_call("trainer.load_checkpoint"), "ms"),
        "trainer.checkpoint_bytes": (raw["train"]["checkpoint_bytes"], "bytes"),
        "evaluator.corpus_stats.ms_per_seq": (
            ms("evaluator.corpus_stats") / max(sum(r["scored_seqs"] for r in every), 1), "ms"),
        "model.logits.calls": (calls("model.logits", [raw["score"]]), "count"),
        "downstream.embed_sequence.ms": (ms("downstream.embed_sequence", [raw["embed"]]), "ms"),
        "model.hidden.calls": (calls("model.hidden", [raw["embed"]]), "count"),
        "parallel.parallel_map_ms": (ms("parallel.parallel_map", [raw["embed"]]), "ms"),
        "parallel.workers": (raw["embed"]["pool_workers"], "count"),
        "parallel.blas_threads": (raw["embed"]["pool_blas_threads"], "count"),
        "cli.import_ms": (statistics.median(v["import_ms"] for v in ph.values()), "ms"),
        "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # let `finally` blocks stop the phase processes on termination too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "genelm" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        work = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(WORK / "results" / f"{work.name}.json", "w", encoding="ascii") as f:
            json.dump(res, f, indent=1)
        for msg in res["failures"]:
            print(f"perfbench: {name}: CHECK FAILED: {msg}", file=sys.stderr)
        results[name] = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}

    print(json.dumps({"environment": res["environment"]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}:{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
