"""Name-embedding similarity scoring with deterministic character trigrams.

A label's embedding is the count of each hashed character trigram of the padded
label, over 512 buckets, kept sparse: bucket -> count. Every count, dot product
and squared norm is a small exact integer, so a cosine is the correctly rounded
quotient of the same numbers whatever the summation order.
"""

from __future__ import annotations

import enum
import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InsufficientNames, ZeroVector

EMBED_DIM = 512
NOT_SIMILAR_BELOW = 0.5
HIGHLY_SIMILAR_FROM = 0.75


class SimilarityBucket(enum.Enum):
    NOT_SIMILAR = "NotSimilar"
    MODERATE = "Moderate"
    HIGHLY_SIMILAR = "HighlySimilar"


def bucket_for(score: float, low: float = NOT_SIMILAR_BELOW, high: float = HIGHLY_SIMILAR_FROM) -> SimilarityBucket:
    if score < low:
        return SimilarityBucket.NOT_SIMILAR
    if score < high:
        return SimilarityBucket.MODERATE
    return SimilarityBucket.HIGHLY_SIMILAR


def _trigram_index(trigram: str) -> int:
    # blake2s keeps the hash stable across platforms and Python versions.
    digest = hashlib.blake2s(trigram.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % EMBED_DIM


def default_embed(label: str) -> Counter[int]:
    """Character-trigram counts of the padded label, by bucket in ``range(EMBED_DIM)``."""
    if not label:
        raise ValueError("label must be non-empty")
    padded = f"^{label}$"
    return Counter(_trigram_index(padded[i : i + 3]) for i in range(len(padded) - 2))


class TrigramProvider:
    """Deterministic default embedding provider."""

    def embed(self, label: str) -> Counter[int]:
        return default_embed(label)


def cosine(u: Mapping[int, int], v: Mapping[int, int]) -> float:
    """Cosine of two sparse integer count vectors (bucket -> count)."""
    nu = sum(c * c for c in u.values())
    nv = sum(c * c for c in v.values())
    if nu == 0 or nv == 0:
        raise ZeroVector("cosine undefined for zero vectors")
    if len(u) > len(v):
        u, v = v, u
    dot = sum(c * v[k] for k, c in u.items() if k in v)
    return dot / (math.sqrt(nu) * math.sqrt(nv))


@dataclass(frozen=True)
class SimilaritySummary:
    wallet: str
    one_to_many_avg: float
    many_to_many_avg: float
    bucket: SimilarityBucket


def wallet_similarity(
    wallet: str,
    wallet_names: Sequence[str],
    typo_labels: Sequence[str],
    provider: TrigramProvider | None = None,
    low: float = NOT_SIMILAR_BELOW,
    high: float = HIGHLY_SIMILAR_FROM,
) -> SimilaritySummary:
    """Average cosine of each typo name to the wallet's other names (one-to-many)
    and over all unordered name pairs (many-to-many)."""
    if provider is None:
        provider = TrigramProvider()
    if len(wallet_names) < 2:
        raise InsufficientNames("need at least 2 wallet names")
    if not typo_labels:
        raise InsufficientNames("need at least 1 typo label")
    vectors = {label: provider.embed(label) for label in set(wallet_names) | set(typo_labels)}

    one_to_many = []
    for typo in typo_labels:
        others = [n for n in wallet_names if n != typo]
        if not others:
            continue
        one_to_many.append(
            sum(cosine(vectors[typo], vectors[o]) for o in others) / len(others)
        )
    if not one_to_many:
        raise InsufficientNames("typo labels have no other wallet names to compare against")

    pair_scores = [
        cosine(vectors[wallet_names[i]], vectors[wallet_names[j]])
        for i in range(len(wallet_names))
        for j in range(i + 1, len(wallet_names))
    ]
    many_to_many = sum(pair_scores) / len(pair_scores)
    return SimilaritySummary(
        wallet=wallet,
        one_to_many_avg=sum(one_to_many) / len(one_to_many),
        many_to_many_avg=many_to_many,
        bucket=bucket_for(many_to_many, low, high),
    )
