from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from bnsquat.errors import InsufficientNames, ZeroVector
from bnsquat.similarity import (
    EMBED_DIM,
    SimilarityBucket,
    TrigramProvider,
    bucket_for,
    cosine,
    default_embed,
    wallet_similarity,
)


def test_cosine_hand_values():
    # classic 3-4-5 vectors: cos = (3*4 + 4*3) / (5 * 5), exactly 0.96
    assert cosine({0: 3, 1: 4}, {0: 4, 1: 3}) == 24 / 25
    assert cosine({0: 1}, {1: 1}) == 0.0
    assert cosine({0: 2, 7: 2}, {0: 5, 7: 5}) == pytest.approx(1.0)
    # a bucket absent from one side counts as 0 there
    assert cosine({0: 1, 1: 1}, {1: 2, 2: 2}) == pytest.approx(0.5)


def test_cosine_rejects_zero():
    with pytest.raises(ZeroVector):
        cosine({}, {1: 2})
    with pytest.raises(ZeroVector):
        cosine({1: 2}, {3: 0})


counts = st.dictionaries(st.integers(0, EMBED_DIM - 1), st.integers(1, 40), min_size=1, max_size=16)


def loop_cosine(u, v):
    """Dense reference: the cosine over all EMBED_DIM buckets, as float vectors."""
    du = [float(u.get(i, 0)) for i in range(EMBED_DIM)]
    dv = [float(v.get(i, 0)) for i in range(EMBED_DIM)]
    dot = sum(a * b for a, b in zip(du, dv))
    return dot / (math.sqrt(sum(a * a for a in du)) * math.sqrt(sum(b * b for b in dv)))


@given(counts)
@settings(max_examples=200)
def test_cosine_self_is_one(v):
    assert cosine(v, v) == pytest.approx(1.0)


@given(counts, st.integers(1, 100))
@settings(max_examples=200)
def test_cosine_scale_invariant_and_bounded(v, k):
    assert cosine(v, {i: c * k for i, c in v.items()}) == pytest.approx(1.0)
    shifted = {(i + 1) % EMBED_DIM: c for i, c in v.items()}
    assert 0.0 <= cosine(v, shifted) <= 1.0 + 1e-12


@given(counts, counts)
@settings(max_examples=200)
def test_cosine_equals_dense_float_loop_exactly(u, v):
    # Every partial sum is an integer below 2**53, so the dense float loop adds
    # exactly and the two quotients are the same correctly rounded numbers.
    assert cosine(u, v) == loop_cosine(u, v)


def test_bucket_boundaries():
    assert bucket_for(0.0) is SimilarityBucket.NOT_SIMILAR
    assert bucket_for(0.499999) is SimilarityBucket.NOT_SIMILAR
    assert bucket_for(0.5) is SimilarityBucket.MODERATE
    assert bucket_for(0.749999) is SimilarityBucket.MODERATE
    assert bucket_for(0.75) is SimilarityBucket.HIGHLY_SIMILAR
    assert bucket_for(1.0) is SimilarityBucket.HIGHLY_SIMILAR


def test_bucket_custom_thresholds():
    assert bucket_for(0.4, low=0.3, high=0.6) is SimilarityBucket.MODERATE


def test_default_embed_shape_and_determinism():
    v = default_embed("johndoe")
    assert all(isinstance(k, int) and 0 <= k < EMBED_DIM for k in v)
    assert all(isinstance(c, int) and c > 0 for c in v.values())
    assert v == default_embed("johndoe")
    # padded label has len + 2 characters, hence len trigrams
    assert sum(v.values()) == len("johndoe")


def test_default_embed_similar_labels_score_high():
    sim = cosine(default_embed("vitalik"), default_embed("vitalikk"))
    dissim = cosine(default_embed("vitalik"), default_embed("xqzw9834"))
    assert sim > 0.6 > dissim


def test_wallet_similarity_matches_nested_loop_oracle():
    names = ["alpha", "alphabet", "omega"]
    typos = ["alphabet"]
    provider = TrigramProvider()
    summary = wallet_similarity("0xw", names, typos, provider)

    vec = {n: provider.embed(n) for n in names}
    one = [cosine(vec["alphabet"], vec[o]) for o in names if o != "alphabet"]
    pairs = [
        cosine(vec[names[i]], vec[names[j]])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]
    assert summary.one_to_many_avg == pytest.approx(sum(one) / len(one))
    assert summary.many_to_many_avg == pytest.approx(sum(pairs) / len(pairs))
    assert summary.bucket is bucket_for(summary.many_to_many_avg)


def test_wallet_similarity_identical_names_bucket():
    summary = wallet_similarity("0xw", ["bitcoinwallet1", "bitcoinwallet2"], ["bitcoinwallet1"])
    assert summary.many_to_many_avg > 0.75
    assert summary.bucket is SimilarityBucket.HIGHLY_SIMILAR


def test_wallet_similarity_requires_inputs():
    with pytest.raises(InsufficientNames):
        wallet_similarity("0xw", ["only"], ["typo"])
    with pytest.raises(InsufficientNames):
        wallet_similarity("0xw", ["a1", "b2"], [])


class FixedProvider:
    """Hand-made count vectors in place of trigram counts."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, label):
        return self.vectors[label]


def test_wallet_similarity_hand_values():
    provider = FixedProvider({"t1": {0: 1}, "t2": {0: 1}, "other": {1: 1}})
    summary = wallet_similarity("0xw", ["t1", "t2", "other"], ["t1"], provider)
    # pairs: (t1,t2)=1, (t1,other)=0, (t2,other)=0 -> mean 1/3 -> NotSimilar
    assert summary.many_to_many_avg == pytest.approx(1 / 3)
    assert summary.bucket is SimilarityBucket.NOT_SIMILAR
    assert summary.one_to_many_avg == pytest.approx(0.5)
