"""Long-context contracts at lengths too slow for the default run: pass
`--run-long` (see README)."""

import dataclasses

import numpy as np
import pytest

from genelm.model import LanguageModel, ModelConfig

pytestmark = pytest.mark.long


def test_acceptance_4_prefix_logits_bit_stable_under_suffix_edits_at_64k():
    """Acceptance 4's causality half on one 65,536-token sequence: the desk
    model's logits before an edited position are bitwise the same, across
    attention tiles, FFN row chunks and both cores."""
    t, j = 65_536, 40_037  # j sits inside a tile and an FFN row chunk
    model = LanguageModel.init(dataclasses.replace(ModelConfig(), max_seq_len=t), seed=1)
    rng = np.random.default_rng(64)
    ids = rng.integers(2, 6, size=t)
    edited = ids.copy()
    edited[j:] = rng.integers(2, 6, size=t - j)
    a, b = model.logits(ids), model.logits(edited)
    assert np.array_equal(a[:j], b[:j])
    assert not np.array_equal(a[j:], b[j:])
