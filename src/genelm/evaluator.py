"""Perplexity and reconstruction-accuracy evaluation, plus the
context-length sweep that compares checkpoints across eval lengths.

Negative log-likelihoods are pooled token-weighted over all scored
positions across sequences (per-position values are available through
score). PAD/UNK targets contribute to neither numerator nor denominator.
ppl is always exp(mean_nll) of the same report row.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .atomic import atomic_write
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


def corpus_stats(model, sequences) -> tuple[float, int, int]:
    """(nll_sum, n_scored_tokens, n_correct) pooled across sequences."""
    if len(sequences) == 0:
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


def report_row(model_id: str, eval_length: int, model, sequences) -> ReportRow:
    """The row of one (model, eval length) cell: mean NLL, ppl =
    exp(mean NLL) and reconstruction accuracy (the fraction of scored
    positions whose argmax logit is the true next token, ties toward the
    lowest id), pooled over `sequences` by `corpus_stats`."""
    total, n, correct = corpus_stats(model, sequences)
    mean_nll = total / n
    # math.exp overflows above ~709.78 nats
    return ReportRow(model_id=model_id, eval_length=eval_length,
                     ppl=math.exp(mean_nll) if mean_nll < 709.78 else math.inf,
                     recon_acc=correct / n,
                     n_sequences=len(sequences), n_scored_tokens=n,
                     mean_nll=mean_nll)


def perplexity(model, sequences) -> tuple[float, float]:
    """(ppl, mean_nll) pooled over all scored positions of all sequences."""
    row = report_row("", 0, model, sequences)
    return row.ppl, row.mean_nll


def reconstruction_accuracy(model, sequences) -> float:
    """The `report_row` reconstruction accuracy of `sequences`."""
    return report_row("", 0, model, sequences).recon_acc


@dataclass
class PerplexityReport:
    rows: list[ReportRow] = field(default_factory=list)

    def write_csv(self, path: str | os.PathLike) -> None:
        with atomic_write(path) as f:
            f.write(CSV_HEADER + "\n")
            for r in self.rows:
                row = asdict(r)
                f.write(",".join("" if row[c] is None else str(row[c])
                                 for c in CSV_HEADER.split(",")) + "\n")

    def write_jsonl(self, path: str | os.PathLike) -> None:
        with atomic_write(path) as f:
            for r in self.rows:
                f.write(json.dumps(asdict(r)) + "\n")


def length_sweep(models, records, lengths, *,
                 max_sequences: int | None = None) -> PerplexityReport:
    """Full (model x length) table over the corpus re-windowed per length.

    `models` is a list of (model_id, model) pairs. Lengths beyond a model's
    context produce rows marked unsupported instead of extrapolating.
    `max_sequences` caps the windows scored per length (None: all of them).
    """
    if max_sequences is not None and max_sequences < 1:
        raise ValueError(f"max_sequences must be >= 1, got {max_sequences}")
    report = PerplexityReport()
    for length in lengths:
        if length < 2:
            raise ValueError(f"eval length must be >= 2, got {length}")
        ws = extract_windows(records, length)
        seqs = [encode(w) for w in ws.windows[:max_sequences]]
        for model_id, model in models:
            if length > model.max_seq_len:
                report.rows.append(ReportRow(
                    model_id=model_id, eval_length=length, ppl=None,
                    recon_acc=None, n_sequences=len(seqs), n_scored_tokens=0,
                    mean_nll=None, supported=False))
                continue
            report.rows.append(report_row(model_id, length, model, seqs))
    return report
