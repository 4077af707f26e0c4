"""Squat-cluster construction, registration statistics, and squatter profiling.

Detection is index-and-confirm: one ``NameIndex`` over the dataset's names
returns, for each target and namespace probed, the few stored names that may be
one edit away, and ``classify`` confirms each. No variant is materialized, so
the cost per target is a handful of dict lookups plus one check per candidate.
"""

from __future__ import annotations

import enum
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .corpus import Dataset, Name, Registration
from .similarity import (
    HIGHLY_SIMILAR_FROM,
    NOT_SIMILAR_BELOW,
    SimilaritySummary,
)
from .typo_models import (
    NameIndex,
    TypoModel,
    alphabet_for_namespace,
    change_position,
    classify,
    generate_all,  # unused here; perfbench/tracing.py wraps squat_detector.generate_all by name
    primary_model,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SquatEntry:
    registration: Registration
    model: TypoModel
    change_position: int


@dataclass
class SquatCluster:
    """One legitimate target plus the registered typo variants pointing at it."""

    target: Registration
    squats: list[SquatEntry] = field(default_factory=list)
    defensive: list[Registration] = field(default_factory=list)


class CampaignStyle(enum.Enum):
    SINGLE_TYPO = "SingleTypo"
    MULTI_TARGET_DISSIMILAR = "MultiTargetDissimilar"
    MULTI_TARGET_SIMILAR = "MultiTargetSimilar"
    UNCLASSIFIED = "Unclassified"


@dataclass
class SquatterProfile:
    wallet: str
    unique_targets: int
    typo_names: int
    total_domains_owned: int
    namespaces: set[str]


def detect(targets: list[Name], dataset: Dataset, cross_tld: bool = False) -> list[SquatCluster]:
    """Build squat clusters for each target.

    A variant is a registered name one typo from the target (``classify``), in
    the target's namespace. Variants that are themselves targets or that
    predate the target are dropped; variants sharing the target's owner go
    under defensive. Clusters with no squats and no defensive entries are
    omitted. Output order follows target rank; within a cluster, variants
    follow their label, then their namespace. With ``cross_tld``, variants of a
    UD target are sought under every UD TLD in the dataset.
    """
    target_displays = {t.display for t in targets}
    ud_namespaces = sorted(ns for ns in dataset.namespaces if ns.startswith("ud:")) if cross_tld else []
    index = NameIndex(r.name for r in dataset.registrations)
    clusters: list[SquatCluster] = []
    for target in targets:
        target_reg = dataset.by_display.get(target.display)
        if target_reg is None:
            log.warning("target %s not in dataset; skipped", target.display)
            continue
        cluster = SquatCluster(target=target_reg)
        namespaces = ud_namespaces if target.namespace.startswith("ud:") and cross_tld else [target.namespace]
        alphabet = alphabet_for_namespace(target.namespace)
        # (variant label, namespace order, name, model); the first two give the documented order.
        hits = []
        for order, namespace in enumerate(namespaces):
            for name in index.near(Name(target.label, namespace)):
                models = classify(name.label, target.label, alphabet)
                if models:
                    hits.append((name.label, order, name, primary_model(models)))
        hits.sort(key=lambda hit: hit[:2])
        for label, _, name, model in hits:
            display = name.display
            if display in target_displays:
                continue
            reg = dataset.by_display[display]
            if reg.registered_at < target_reg.registered_at:
                continue
            if reg.owner == target_reg.owner:
                cluster.defensive.append(reg)
            else:
                cluster.squats.append(SquatEntry(reg, model, change_position(label, target.label, model, alphabet)))
        if cluster.squats or cluster.defensive:
            clusters.append(cluster)
    return clusters


@dataclass
class RegistrationStats:
    per_year: dict[int, int]
    delta_days: list[float]
    first_char_fraction: float
    model_histogram: dict[TypoModel, int]
    typos_per_target: dict[int, int]  # n_squats -> number of targets with that many


def registration_stats(clusters: list[SquatCluster]) -> RegistrationStats:
    per_year: Counter[int] = Counter()
    deltas: list[float] = []
    models: Counter[TypoModel] = Counter()
    typos_per_target: Counter[int] = Counter()
    first_char = 0
    total = 0
    for cluster in clusters:
        typos_per_target[len(cluster.squats)] += 1
        for entry in cluster.squats:
            total += 1
            per_year[entry.registration.registered_at.year] += 1
            delta = entry.registration.registered_at - cluster.target.registered_at
            deltas.append(delta.total_seconds() / 86400.0)
            models[entry.model] += 1
            if entry.change_position == 0:
                first_char += 1
    return RegistrationStats(
        per_year=dict(per_year),
        delta_days=deltas,
        first_char_fraction=first_char / total if total else 0.0,
        model_histogram=dict(models),
        typos_per_target=dict(typos_per_target),
    )


def squatter_profiles(clusters: list[SquatCluster], dataset: Dataset) -> list[SquatterProfile]:
    """Group squat registrations by owner wallet."""
    targets_by_wallet: dict[str, set[str]] = defaultdict(set)
    typos_by_wallet: dict[str, set[str]] = defaultdict(set)
    for cluster in clusters:
        for entry in cluster.squats:
            wallet = entry.registration.owner
            targets_by_wallet[wallet].add(cluster.target.name.display)
            typos_by_wallet[wallet].add(entry.registration.name.display)
    profiles = []
    for wallet in sorted(typos_by_wallet):
        owned = dataset.by_owner.get(wallet, set())
        profiles.append(
            SquatterProfile(
                wallet=wallet,
                unique_targets=len(targets_by_wallet[wallet]),
                typo_names=len(typos_by_wallet[wallet]),
                total_domains_owned=len(owned),
                namespaces={n.namespace for n in owned},
            )
        )
    return profiles


def cross_namespace_fraction(profiles: list[SquatterProfile]) -> float:
    """Fraction of squatter wallets owning names in more than one namespace."""
    if not profiles:
        return 0.0
    multi = sum(1 for p in profiles if len(p.namespaces) > 1)
    return multi / len(profiles)


def classify_campaign(
    profile: SquatterProfile,
    similarity_summary: SimilaritySummary | None,
    low: float = NOT_SIMILAR_BELOW,
    high: float = HIGHLY_SIMILAR_FROM,
) -> CampaignStyle:
    """Assign one of the three observed squatting styles, or Unclassified."""
    if profile.typo_names == 1 and profile.total_domains_owned == 1:
        return CampaignStyle.SINGLE_TYPO
    if similarity_summary is None:
        return CampaignStyle.UNCLASSIFIED
    avg = similarity_summary.many_to_many_avg
    if avg >= high:
        return CampaignStyle.MULTI_TARGET_SIMILAR
    if avg < low:
        return CampaignStyle.MULTI_TARGET_DISSIMILAR
    return CampaignStyle.UNCLASSIFIED
