"""Perplexity and reconstruction-accuracy evaluation, plus the
context-length sweep that compares checkpoints across eval lengths.

Negative log-likelihoods are pooled token-weighted over all scored
positions across sequences (per-sequence values are available through
per_sequence_stats, per-position ones through score). PAD/UNK targets
contribute to neither numerator nor denominator. ppl is always
exp(mean_nll) of the same report row.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContextOverflowError
from .genome_io import extract_windows
from .tokenizer import encode, next_token_targets

CSV_HEADER = "model_id,eval_length,ppl,recon_acc,n_sequences,n_scored_tokens"


def score(model, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-position (nll, correct, mask) for one sequence: the float64
    negative log-likelihood of the next token, whether the argmax logit is
    that token (ties break toward the lowest id), and which positions are
    scored (`next_token_targets`); unscored positions hold 0 and False."""
    ids = np.asarray(ids)
    t = len(ids)
    if t < 2:
        raise ValueError(f"sequence of {t} tokens has no next-token targets")
    if t > model.max_seq_len:
        raise ContextOverflowError(
            f"sequence length {t} exceeds model context {model.max_seq_len}")
    targets, mask = next_token_targets(ids)
    logits = np.asarray(model.logits(ids), dtype=np.float64)
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    nll = np.where(mask, -logp[np.arange(t), targets], 0.0)
    correct = mask & (logits.argmax(axis=-1) == targets)
    return nll, correct, mask


def _totals(model, seq) -> tuple[float, int, int]:
    """(nll_sum, n_scored, n_correct) of one sequence."""
    nll, correct, mask = score(model, seq)
    # sum the scored values only: zeros in between would regroup numpy's
    # pairwise summation and change the last bits
    return float(nll[mask].sum()), int(mask.sum()), int(correct.sum())


def per_sequence_stats(model, sequences) -> list[dict]:
    """Per-sequence mean NLL / ppl / accuracy rows (sequence-weighted view)."""
    rows = []
    for i, seq in enumerate(sequences):
        s, n, c = _totals(model, seq)
        rows.append({"index": i, "n_scored": n,
                     "mean_nll": s / n if n else None,
                     "ppl": math.exp(s / n) if n else None,
                     "accuracy": c / n if n else None})
    return rows


def corpus_stats(model, sequences) -> tuple[float, int, int]:
    """(nll_sum, n_scored_tokens, n_correct) pooled across sequences."""
    if not sequences:
        raise ValueError("no sequences to evaluate")
    total, n_total, correct = 0.0, 0, 0
    for seq in sequences:
        s, n, c = _totals(model, seq)
        total += s
        n_total += n
        correct += c
    if n_total == 0:
        raise ValueError("every position is masked; nothing to score")
    return total, n_total, correct


def perplexity(model, sequences) -> tuple[float, float]:
    """(ppl, mean_nll) pooled over all scored positions of all sequences."""
    total, n, _ = corpus_stats(model, sequences)
    mean_nll = total / n
    return math.exp(mean_nll), mean_nll


def reconstruction_accuracy(model, sequences) -> float:
    """Fraction of scored positions where the argmax logit is the true next
    token (ties break toward the lowest token id)."""
    _, n, correct = corpus_stats(model, sequences)
    return correct / n


# ---------------------------------------------------------------------------
# length sweep
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    model_id: str
    eval_length: int
    ppl: float | None
    recon_acc: float | None
    n_sequences: int
    n_scored_tokens: int
    mean_nll: float | None = None
    supported: bool = True


@dataclass
class PerplexityReport:
    rows: list[ReportRow] = field(default_factory=list)

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write(CSV_HEADER + "\n")
            for r in self.rows:
                ppl = repr(r.ppl) if r.ppl is not None else ""
                acc = repr(r.recon_acc) if r.recon_acc is not None else ""
                f.write(f"{r.model_id},{r.eval_length},{ppl},{acc},"
                        f"{r.n_sequences},{r.n_scored_tokens}\n")

    def write_jsonl(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii") as f:
            for r in self.rows:
                f.write(json.dumps({
                    "model_id": r.model_id, "eval_length": r.eval_length,
                    "ppl": r.ppl, "recon_acc": r.recon_acc,
                    "n_sequences": r.n_sequences,
                    "n_scored_tokens": r.n_scored_tokens,
                    "mean_nll": r.mean_nll, "supported": r.supported,
                }) + "\n")

    @classmethod
    def read_jsonl(cls, path: str | os.PathLike) -> "PerplexityReport":
        rows = []
        with open(path, encoding="ascii") as f:
            for line in f:
                d = json.loads(line)
                rows.append(ReportRow(**d))
        return cls(rows)

    @classmethod
    def read_csv(cls, path: str | os.PathLike) -> "PerplexityReport":
        rows = []
        with open(path, encoding="ascii") as f:
            header = f.readline().rstrip("\n")
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header: {header!r}")
            for line in f:
                mid, length, ppl, acc, nseq, ntok = line.rstrip("\n").split(",")
                rows.append(ReportRow(
                    model_id=mid, eval_length=int(length),
                    ppl=float(ppl) if ppl else None,
                    recon_acc=float(acc) if acc else None,
                    n_sequences=int(nseq), n_scored_tokens=int(ntok),
                    supported=bool(ppl)))
        return cls(rows)


def length_sweep(models, records, lengths, *,
                 max_ambiguous_fraction: float = 0.1,
                 max_sequences: int | None = None) -> PerplexityReport:
    """Full (model x length) table over the corpus re-windowed per length.

    `models` is a list of (model_id, model) pairs. Lengths beyond a model's
    context produce rows marked unsupported instead of extrapolating.
    """
    report = PerplexityReport()
    for length in lengths:
        if length < 2:
            raise ValueError(f"eval length must be >= 2, got {length}")
        ws = extract_windows(records, length, max_ambiguous_fraction)
        windows = ws.windows[:max_sequences] if max_sequences else ws.windows
        seqs = [encode(w) for w in windows]
        for model_id, model in models:
            if length > model.max_seq_len:
                report.rows.append(ReportRow(
                    model_id=model_id, eval_length=length, ppl=None,
                    recon_acc=None, n_sequences=len(seqs), n_scored_tokens=0,
                    mean_nll=None, supported=False))
                continue
            total, n, correct = corpus_stats(model, seqs)
            mean_nll = total / n
            report.rows.append(ReportRow(
                model_id=model_id, eval_length=length,
                ppl=math.exp(mean_nll), recon_acc=correct / n,
                n_sequences=len(seqs), n_scored_tokens=n,
                mean_nll=mean_nll, supported=True))
    return report
