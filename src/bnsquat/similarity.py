"""Name-embedding similarity scoring with a deterministic trigram default.

The default provider hashes character trigrams of the padded label into a fixed
512-dimensional term-frequency vector; any provider mapping labels to fixed-size
vectors can be plugged in (e.g. precomputed learned embeddings).
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

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


class EmbeddingProvider(Protocol):
    dimension: int

    def embed(self, label: str) -> np.ndarray: ...


def _trigram_index(trigram: str) -> int:
    # blake2s keeps the hash stable across platforms and Python versions.
    digest = hashlib.blake2s(trigram.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % EMBED_DIM


def default_embed(label: str) -> np.ndarray:
    """Character-trigram term-frequency vector of the padded label."""
    if not label:
        raise ValueError("label must be non-empty")
    padded = f"^{label}$"
    vec = np.zeros(EMBED_DIM)
    for i in range(len(padded) - 2):
        vec[_trigram_index(padded[i : i + 3])] += 1.0
    return vec


class TrigramProvider:
    """Deterministic default embedding provider."""

    dimension = EMBED_DIM

    def embed(self, label: str) -> np.ndarray:
        return default_embed(label)


class PrecomputedProvider:
    """Provider backed by a JSONL file of {label, vector:[...]} records."""

    def __init__(self, records: Iterable[dict]):
        self._vectors = {obj["label"]: np.asarray(obj["vector"], dtype=float) for obj in records}
        dims = {v.shape[0] for v in self._vectors.values()}
        if len(dims) > 1:
            raise ValueError(f"inconsistent vector dimensions: {sorted(dims)}")
        self.dimension = dims.pop() if dims else 0

    @classmethod
    def from_path(cls, path) -> "PrecomputedProvider":
        with open(path) as fh:
            return cls(json.loads(line) for line in fh if line.strip())

    def embed(self, label: str) -> np.ndarray:
        try:
            return self._vectors[label]
        except KeyError:
            raise KeyError(f"no precomputed embedding for {label!r}") from None


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero vectors")
    if not (1e-150 < nu < 1e150 and 1e-150 < nv < 1e150):
        # The squares summed into a norm this far out lose precision or overflow.
        # Cosine is scale-invariant, and scaling by a power of two is exact.
        u = np.ldexp(u, -np.frexp(np.abs(u).max())[1])
        v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    return float(np.dot(u, v) / (nu * nv))


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
    provider: EmbeddingProvider | None = None,
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
