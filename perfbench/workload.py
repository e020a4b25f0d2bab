"""A workload's inputs and the checks of its outputs, each run in a child
process so that the orchestrating process stays small: a child's peak RSS
starts from the RSS of the process that started it."""

from __future__ import annotations

import numpy as np

import checks as C
import inputs as I
import reference as R

SOURCE_SEED = 0  # one Markov source for every seed: only the samples vary
INIT_CONTEXT = 512


def source(w: dict) -> np.ndarray:
    g = w["genome"]
    return I.transition_matrix(SOURCE_SEED, g["order"], g["sharpness"])


def write_dataset(path, sequences: list[str]) -> None:
    """Labeled TSV in the program's documented dataset format."""
    with open(path, "w", encoding="ascii") as f:
        f.write("task_kind=binary\tk=2\n")
        for i, s in enumerate(sequences):
            f.write(f"{s}\t{i % 2}\n")


def read_dataset(path) -> list[str]:
    with open(path, encoding="ascii") as f:
        return [line.split("\t")[0] for line in f.readlines()[1:]]


def init_checkpoint(path, context: int, seed: int) -> None:
    """A freshly initialised desk-default checkpoint at `context`."""
    from genelm import trainer as TR
    from genelm.model import LanguageModel, ModelConfig
    cfg = ModelConfig(max_seq_len=context)
    model = LanguageModel.init(cfg, seed=seed)
    TR.save_checkpoint(TR.Checkpoint(
        model_config=cfg, train_config=TR.TrainConfig(),
        params={n: p.data for n, p in model.named_params().items()},
        moments=None, step=0, stage=0, data_seed=seed), path)


def model_checkpoint(init, path, context: int | None) -> None:
    """The checkpoint scoring and embedding start from: the fresh one, or
    the fresh one extended to `context` (rotary base rescaled, same
    weights). Its cost does not depend on training, so no phase waits for
    another."""
    from genelm import trainer as TR
    ckpt = TR.load_checkpoint(init)
    TR.save_checkpoint(TR.prepare_extension(ckpt, context) if context else ckpt, path)


def generate(spec: dict) -> dict:
    """Write the FASTA, the starting checkpoint and the embedding dataset."""
    import envinfo
    import os
    w, seed, work = spec["workload"], spec["seed"], spec["work"]
    g = w["genome"]
    I.write_fasta(f"{work}/genome.fa", I.make_genome(seed, source(w), g), g["widths"])
    init_checkpoint(f"{work}/init.ckpt", INIT_CONTEXT, seed)
    model_checkpoint(f"{work}/init.ckpt", f"{work}/model.ckpt", w.get("model_context"))
    e = w["embed"]
    if "lengths" in e:
        # every round's group holds the same multiset of lengths
        rng = np.random.default_rng([seed, 4])
        lengths = [n for _ in range(e["n"] // e["per_round"])
                   for n in I.spread_lengths(rng, e["per_round"], *e["lengths"])]
        write_dataset(f"{work}/embed.tsv", I.sequences(seed, source(w), lengths))
    return {"environment": envinfo.environment(os.environ)}


def embed_from_eval(spec: dict) -> dict:
    """Embedding dataset made of the leading eval-shard windows."""
    work, n = spec["work"], spec["workload"]["embed"]["from_eval"]
    rows = C.read_shard(f"{work}/eval.tokens")[:n]
    write_dataset(f"{work}/embed.tsv", [I.DECODE[r].tobytes().decode("ascii") for r in rows])
    return {}


def check(spec: dict) -> dict:
    """Every check of the workload's outputs; returns the failures."""
    w, seed, work, out = spec["workload"], spec["seed"], spec["work"], spec["outputs"]
    records = I.make_genome(seed, source(w), w["genome"])
    held = C.read_shard(f"{work}/eval.tokens")
    failures = C.shards(C.read_shard(f"{work}/train.tokens"), held,
                        I.windows(records, w["window_len"]))
    train, score = out["train"], out["score"]
    failures += C.losses(train["losses"], I.entropy_rate(source(w)), w["loss_must_decrease"])
    with open(f"{work}/trained.ckpt", "rb") as a, open(f"{work}/trained.ckpt.again", "rb") as b:
        failures += C.roundtrip(a.read(), b.read())

    cfg, params = R.read_checkpoint(f"{work}/model.ckpt")
    s = w["score"]
    if s.get("extend_to"):
        init_base = R.read_checkpoint(f"{work}/init.ckpt")[0]["rope_base"]
        failures += C.rope_bases([train["start_rope_base"], train["rope_base"]],
                                 [INIT_CONTEXT, w["train"]["extend_to"]])
        failures += C.rope_bases([init_base, cfg["rope_base"], score["rope_base"]],
                                 [INIT_CONTEXT, cfg["max_seq_len"], s["extend_to"]])
        cfg = dict(cfg, max_seq_len=s["extend_to"],
                   rope_base=cfg["rope_base"] * (s["extend_to"] / cfg["max_seq_len"]) ** 2)
    cache = {}  # forwards shared by the scoring and embedding checks
    if "lengths" in s:  # one sweep per record
        for record, rows in zip(records, score["groups"]):
            ref, counts = {}, {}
            for length in s["lengths"]:
                wins = I.windows([record], length)[:s["max_sequences"]]
                ref[length] = R.score(cfg, params, wins, cache)
                counts[length] = len(wins)
            failures += C.sweep_rows(rows, ref, counts)
    else:
        pooled = tuple(sum(g[i] for g in score["groups"]) for i in range(3))
        failures += C.scores(pooled, R.score(cfg, params, held[:s["n_sequences"]], cache),
                             "scoring")

    seqs = [I.encode(np.frombuffer(x.encode(), np.uint8)) for x in read_dataset(f"{work}/embed.tsv")]
    failures += C.embeddings(np.load(f"{work}/embeddings.npy"),
                             R.embeddings(cfg, params, seqs, cache))
    return {"failures": failures}


TASKS = {"generate": generate, "embed_from_eval": embed_from_eval, "check": check}
