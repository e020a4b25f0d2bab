import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genelm import metrics as M


# --- brute-force oracles ----------------------------------------------------

def mcc_contingency(preds, targets):
    tp = sum(1 for p, t in zip(preds, targets) if p == 1 and t == 1)
    tn = sum(1 for p, t in zip(preds, targets) if p == 0 and t == 0)
    fp = sum(1 for p, t in zip(preds, targets) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(preds, targets) if p == 0 and t == 1)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return None
    return (tp * tn - fp * fn) / math.sqrt(denom)


def f1_counts(preds, targets, positive=1):
    tp = sum(1 for p, t in zip(preds, targets) if p == positive and t == positive)
    fp = sum(1 for p, t in zip(preds, targets) if p == positive and t != positive)
    fn = sum(1 for p, t in zip(preds, targets) if p != positive and t == positive)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def auc_pairwise(scores, targets):
    pos = [s for s, t in zip(scores, targets) if t == 1]
    neg = [s for s, t in zip(scores, targets) if t == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ap_threshold_scan(scores, targets):
    if sum(targets) == 0 or sum(targets) == len(targets):
        return None
    n_pos = sum(targets)
    ap, prev_recall = 0.0, 0.0
    for theta in sorted(set(scores), reverse=True):
        preds = [1 if s >= theta else 0 for s in scores]
        tp = sum(1 for p, t in zip(preds, targets) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(preds, targets) if p == 1 and t == 0)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


# --- point examples ---------------------------------------------------------

class TestPointExamples:
    def test_perfect_binary(self):
        t = [0, 1, 0, 1, 1]
        assert M.mcc(t, t) == 1.0
        assert M.f1(t, t) == 1.0
        assert M.auc_roc([0.1, 0.9, 0.2, 0.8, 0.7], t) == 1.0

    def test_inverted_perfect(self):
        t = [0, 1, 0, 1]
        p = [1, 0, 1, 0]
        assert M.mcc(p, t) == -1.0

    def test_auc_three_quarters(self):
        # pairs: (0.35,0.1)+, (0.35,0.4)-, (0.8,0.1)+, (0.8,0.4)+ -> 3/4
        assert M.auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_undefined_markers(self):
        assert M.mcc([1, 1, 1], [0, 1, 0]) is None       # one prediction class
        assert M.mcc([0, 1, 0], [1, 1, 1]) is None       # one target class
        assert M.auc_roc([0.2, 0.4], [1, 1]) is None
        assert M.auc_pr([0.2, 0.4], [0, 0]) is None
        assert M.median_auc_per_label(np.zeros((3, 2)),
                                      np.ones((3, 2), dtype=int)) is None

    # pinned values: NaN sorts above every number, and each NaN is a
    # threshold of its own, ranked in input order
    @pytest.mark.parametrize("scores, targets, roc, pr", [
        ([math.nan, 0.5, math.nan, 0.2, math.inf, -math.inf, 0.5], [1, 0, 0, 1, 1, 0, 1],
         0.5416666666666666, 0.7708333333333333),
        ([math.inf, math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, math.nan],
         [0, 1, 1, 1, 0, 1, 0, 0], 0.375, 0.4928571428571428),
        ([math.nan, math.nan, math.nan, 1.0], [0, 1, 1, 0], 1.0, 0.41666666666666663)])
    def test_non_finite_scores(self, scores, targets, roc, pr):
        assert M.auc_roc(scores, targets) == roc
        assert M.auc_pr(scores, targets) == pr

    def test_precision_recall_accuracy(self):
        p = [1, 1, 0, 0]
        t = [1, 0, 1, 0]
        assert M.accuracy(p, t) == 0.5
        assert M.precision(p, t) == 0.5
        assert M.recall(p, t) == 0.5
        assert M.precision([0, 0], [0, 1]) is None
        assert M.recall([1, 1], [0, 0]) is None

    @pytest.mark.parametrize("fn", [M.accuracy, M.precision, M.recall, M.mcc, M.f1])
    @pytest.mark.parametrize("preds, targets", [([1, 1], [1]), ([1, 0, 1], [1]), ([], [])])
    def test_unequal_or_empty_labels_rejected(self, fn, preds, targets):
        with pytest.raises(ValueError, match="need equal-length non-empty predictions"):
            fn(preds, targets)


# --- randomized brute-force comparison (the oracle suite) --------------------

class TestBruteForce:
    N_INSTANCES = 1000

    def test_mcc_matches_contingency(self, rng):
        for _ in range(self.N_INSTANCES):
            n = int(rng.integers(1, 21))
            p = rng.integers(0, 2, n)
            t = rng.integers(0, 2, n)
            want = mcc_contingency(p.tolist(), t.tolist())
            got = M.mcc(p, t)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_f1_matches_counts(self, rng):
        for _ in range(self.N_INSTANCES):
            n = int(rng.integers(1, 21))
            k = int(rng.integers(2, 5))
            p = rng.integers(0, k, n)
            t = rng.integers(0, k, n)
            assert M.f1(p, t) == pytest.approx(
                f1_counts(p.tolist(), t.tolist()), abs=1e-12)
            macro = np.mean([f1_counts(p.tolist(), t.tolist(), positive=c)
                             for c in range(k)])
            assert M.f1(p, t, averaging="macro", n_classes=k) == \
                pytest.approx(macro, abs=1e-12)

    def test_auc_roc_matches_pairwise(self, rng):
        for _ in range(self.N_INSTANCES):
            n = int(rng.integers(2, 21))
            # quantized scores force plenty of ties
            s = np.round(rng.random(n), 1)
            t = rng.integers(0, 2, n)
            want = auc_pairwise(s.tolist(), t.tolist())
            got = M.auc_roc(s, t)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_auc_pr_matches_threshold_scan(self, rng):
        for _ in range(self.N_INSTANCES):
            n = int(rng.integers(2, 21))
            s = np.round(rng.random(n), 1)
            t = rng.integers(0, 2, n)
            want = ap_threshold_scan(s.tolist(), t.tolist())
            got = M.auc_pr(s, t)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_median_auc_matches_per_label_recompute(self, rng):
        for _ in range(100):
            n, k = int(rng.integers(4, 16)), int(rng.integers(1, 6))
            s = rng.random((n, k))
            t = rng.integers(0, 2, (n, k))
            per_label = [M.auc_roc(s[:, j], t[:, j]) for j in range(k)]
            defined = [a for a in per_label if a is not None]
            want = float(np.median(defined)) if defined else None
            assert M.median_auc_per_label(s, t) == want


# --- invariances -------------------------------------------------------------

class TestInvariances:
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @settings(max_examples=200)
    def test_mcc_invariant_under_label_swap(self, pairs):
        p = [a for a, _ in pairs]
        t = [b for _, b in pairs]
        a = M.mcc(p, t)
        b = M.mcc([1 - x for x in p], [1 - x for x in t])
        if a is None:
            assert b is None
        else:
            assert a == pytest.approx(b, abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1)),
                    min_size=2, max_size=40))
    @settings(max_examples=200)
    def test_auc_invariant_under_monotone_transform(self, pairs):
        # grid-valued scores keep exp(3x) injective in floating point
        s = [a / 1000 for a, _ in pairs]
        t = [b for _, b in pairs]
        a = M.auc_roc(s, t)
        b = M.auc_roc([math.exp(3 * x) for x in s], t)
        if a is None:
            assert b is None
        else:
            assert a == pytest.approx(b, abs=1e-9)
