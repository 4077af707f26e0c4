"""Seeded synthetic-ecosystem generator with a ground-truth manifest.

Produces a registration corpus with planted squatter campaigns (single-typo,
multi-target, and similar-portfolio styles), defensive registrations, decoy
names, and a matching transaction stream with planted common-sender events.
Everything is deterministic under the scenario seed.

Planting guarantees used by the end-to-end checks:
  - squat targets are pairwise >= 3 edits apart, so a variant of one target can
    never match another;
  - every non-squat corpus label is >= 2 edits from every target;
  - background transaction senders are unique per transaction, so the only
    common senders are the planted victim events.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, asdict
from datetime import datetime, timedelta, timezone
from typing import Iterator

import random

from .corpus import Name
from .typo_models import (
    TypoModel,
    alphabet_for_namespace,
    damerau_distance,
    generate_all,
)
from .wordlist import WORDS

ALL_MODELS = tuple(m.value for m in TypoModel)


@dataclass
class ScenarioParams:
    n_legit: int = 1000
    n_decoys: int = 200
    style_i_fraction: float = 0.02
    style_ii_fraction: float = 0.01
    style_iii_fraction: float = 0.01
    n_defensive: int = 2
    models_enabled: tuple[str, ...] = ALL_MODELS
    tx_per_legit: tuple[int, int] = (20, 60)
    tx_per_other: tuple[int, int] = (0, 2)
    typo_event_rate: float = 0.5
    n_typo_events: int | None = None  # overrides the rate when set
    namespace: str = "eth"
    start_year: int = 2019
    years: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_legit < 0 or self.n_decoys < 0:
            raise ValueError("counts must be >= 0")
        fracs = (self.style_i_fraction, self.style_ii_fraction, self.style_iii_fraction)
        if any(f < 0 for f in fracs) or sum(fracs) > 1:
            raise ValueError("style fractions must be >= 0 and sum to <= 1")
        if not 0 <= self.typo_event_rate <= 1:
            raise ValueError("typo_event_rate must be in [0, 1]")
        unknown = set(self.models_enabled) - set(ALL_MODELS)
        if unknown:
            raise ValueError(f"unknown models: {sorted(unknown)}")

    @classmethod
    def from_json(cls, text: str) -> "ScenarioParams":
        obj = json.loads(text)
        for key in ("models_enabled", "tx_per_legit", "tx_per_other"):
            if key in obj:
                obj[key] = tuple(obj[key])
        return cls(**obj)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class Manifest:
    """Ground truth for a generated scenario."""

    targets: list[str] = field(default_factory=list)
    clusters: list[dict] = field(default_factory=list)
    decoys: list[str] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    labels: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _source_for(namespace: str) -> str:
    if namespace == "eth":
        return "ens"
    if namespace == "adah":
        return "adah"
    return "ud-eth"


def _asset_for(namespace: str) -> str:
    return "ADA" if namespace == "adah" else "ETH"


def _label_pool(rng: random.Random) -> Iterator[str]:
    """Wordlist labels first, then two-word compounds; order is seed-stable."""
    words = WORDS[:]
    rng.shuffle(words)
    yield from words
    while True:
        yield rng.choice(WORDS) + rng.choice(WORDS)


def _iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _rand_ts(rng: random.Random, params: ScenarioParams) -> datetime:
    start = datetime(params.start_year, 1, 1, tzinfo=timezone.utc)
    span = params.years * 365 * 86400
    return start + timedelta(seconds=rng.randrange(span))


def synth_corpus(params: ScenarioParams) -> tuple[list[dict], Manifest]:
    """Generate registration fixture records plus the ground-truth manifest."""
    rng = random.Random(params.seed)
    ns = params.namespace
    alphabet = alphabet_for_namespace(ns)
    source = _source_for(ns)
    asset = _asset_for(ns)
    models = {TypoModel(m) for m in params.models_enabled}

    n_i = round(params.style_i_fraction * params.n_legit)
    n_ii = round(params.style_ii_fraction * params.n_legit)
    n_iii = round(params.style_iii_fraction * params.n_legit)
    n_targets = n_i + 3 * n_ii + n_iii + params.n_defensive

    pool = _label_pool(rng)
    used: set[str] = set()

    # Targets first: pairwise distance >= 3 so variants never cross clusters.
    targets: list[str] = []
    while len(targets) < n_targets:
        label = next(pool)
        if label in used or len(label) < 5:
            continue
        if all(
            abs(len(label) - len(t)) >= 3 or damerau_distance(label, t) >= 3
            for t in targets
        ):
            targets.append(label)
            used.add(label)
    # Labels within one edit of any target are reserved for planted squats.
    forbidden: set[str] = set(targets)
    for t in targets:
        for v in generate_all(Name(t, ns), alphabet):
            forbidden.add(v.variant_label)

    def fresh_label() -> str:
        while True:
            label = next(pool)
            if label not in used and label not in forbidden:
                used.add(label)
                return label

    records: list[dict] = []
    manifest = Manifest()

    def register(label: str, owner: str, resolution: str, ts: datetime) -> dict:
        rec = {
            "display": Name(label, ns).display,
            "namespace": ns,
            "owner": owner,
            "resolution": {asset: resolution},
            "registered_at": _iso(ts),
            "source": source,
        }
        records.append(rec)
        return rec

    # Legitimate names: targets plus filler, each in its own wallet.
    legit_labels = targets + [fresh_label() for _ in range(max(0, params.n_legit - n_targets))]
    target_ts: dict[str, datetime] = {}
    target_owner: dict[str, str] = {}
    for i, label in enumerate(legit_labels):
        ts = _rand_ts(rng, params)
        owner = f"0xleg{i:06d}o"
        register(label, owner, f"0xleg{i:06d}r", ts)
        if label in set(targets):
            target_ts[label] = ts
            target_owner[label] = owner
    manifest.targets = [Name(t, ns).display for t in targets]

    squat_counter = 0

    def pick_variant(target: str) -> tuple[str, TypoModel, int]:
        variants = sorted(
            (v for v in generate_all(Name(target, ns), alphabet)
             if v.model in models and v.variant_label not in used),
            key=lambda v: v.variant_label,
        )
        if not variants:
            raise RuntimeError(f"no variants left for target {target!r}")
        v = rng.choice(variants)
        return v.variant_label, v.model, v.change_position

    def plant_squat(target: str, owner: str) -> dict:
        nonlocal squat_counter
        label, model, pos = pick_variant(target)
        used.add(label)
        ts = target_ts[target] + timedelta(days=rng.uniform(1, 300))
        rec = register(label, owner, f"0xsq{squat_counter:06d}r", ts)
        squat_counter += 1
        return {
            "display": rec["display"],
            "model": model.value,
            "position": pos,
            "owner": owner,
        }

    clusters: dict[str, dict] = {}

    def cluster_for(target: str) -> dict:
        display = Name(target, ns).display
        if display not in clusters:
            clusters[display] = {"target": display, "style": None, "squats": [], "defensive": []}
        return clusters[display]

    remaining = list(targets)

    # Style i: one squatter wallet, one typo, no other domains.
    for k in range(n_i):
        target = remaining.pop(0)
        cluster = cluster_for(target)
        cluster["style"] = "i"
        cluster["squats"].append(plant_squat(target, f"0xsty1w{k:05d}"))

    # Style ii: one wallet attacking three dissimilar targets, plus unrelated names.
    for k in range(n_ii):
        owner = f"0xsty2w{k:05d}"
        for _ in range(3):
            target = remaining.pop(0)
            cluster = cluster_for(target)
            cluster["style"] = "ii"
            cluster["squats"].append(plant_squat(target, owner))
        for extra in range(2):
            register(fresh_label(), owner, f"0xsty2x{k:05d}{extra}r", _rand_ts(rng, params))

    # Style iii: one wallet registering three similar typos of the same target.
    for k in range(n_iii):
        owner = f"0xsty3w{k:05d}"
        # Prefer longer targets so the portfolio is clearly self-similar.
        remaining.sort(key=lambda t: -len(t))
        target = remaining.pop(0)
        cluster = cluster_for(target)
        cluster["style"] = "iii"
        for _ in range(3):
            cluster["squats"].append(plant_squat(target, owner))

    # Defensive registrations: same owner as the target.
    for j in range(params.n_defensive):
        if not remaining:
            break
        target = remaining.pop(0)
        label, _, _ = pick_variant(target)
        used.add(label)
        ts = target_ts[target] + timedelta(days=rng.uniform(1, 100))
        rec = register(label, target_owner[target], f"0xdef{j:05d}r", ts)
        cluster_for(target)["defensive"].append(rec["display"])

    # Decoys: negatives at distance >= 2 from every target.
    for i in range(params.n_decoys):
        rec = register(fresh_label(), f"0xdec{i:05d}o", f"0xdec{i:05d}r", _rand_ts(rng, params))
        manifest.decoys.append(rec["display"])

    manifest.clusters = [clusters[d] for d in sorted(clusters)]
    return records, manifest


def _price_for(day: str, asset: str) -> float:
    """Stable pseudo-random positive daily closing rate."""
    return 50.0 + (zlib.crc32(f"{day}|{asset}".encode()) % 500_000) / 100.0


def synth_transactions(
    records: list[dict], manifest: Manifest, params: ScenarioParams
) -> tuple[list[dict], list[dict], list[str]]:
    """Generate (account-tx records, UTXO records, price CSV rows) for a corpus."""
    rng = random.Random(params.seed + 1)
    asset = _asset_for(params.namespace)
    utxo_chain = asset == "ADA"
    by_display = {rec["display"]: rec for rec in records}

    txs: list[dict] = []
    utxos: list[dict] = []
    tx_counter = 0

    def emit(sender: str, receiver: str, amount: float, ts: datetime):
        nonlocal tx_counter
        h = f"0xhash{tx_counter:08d}"
        tx_counter += 1
        if utxo_chain:
            utxos.append(
                {"hash": h, "inputs": [sender], "output": receiver,
                 "amount": round(amount, 6), "timestamp": _iso(ts)}
            )
        else:
            txs.append(
                {"hash": h, "sender": sender, "receiver": receiver,
                 "amount": round(amount, 6), "asset": asset, "timestamp": _iso(ts)}
            )

    squat_displays = {s["display"] for c in manifest.clusters for s in c["squats"]}
    defensive_displays = {d for c in manifest.clusters for d in c["defensive"]}
    low_traffic = squat_displays | defensive_displays | set(manifest.decoys)
    bg_counter = 0
    for rec in records:
        lo, hi = params.tx_per_other if rec["display"] in low_traffic else params.tx_per_legit
        receiver = rec["resolution"][asset]
        reg_ts = datetime.strptime(rec["registered_at"], "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
        for _ in range(rng.randint(lo, hi)):
            emit(f"0xbg{bg_counter:08d}", receiver, rng.uniform(0.01, 5.0),
                 reg_ts + timedelta(days=rng.uniform(0, 200)))
            bg_counter += 1

    # Planted victim events: a sender transacting with both sides of a pair.
    pairs = [
        (c["target"], s["display"]) for c in manifest.clusters for s in c["squats"]
    ]
    if params.n_typo_events is not None:
        n_events = params.n_typo_events
    else:
        n_events = round(params.typo_event_rate * len(pairs))
    coinbase_addrs: list[str] = []
    for k in range(n_events):
        target_display, typo_display = pairs[k % len(pairs)] if pairs else (None, None)
        if target_display is None:
            break
        if k % 2 == 0:
            sender = f"0xcoinbase{k:05d}"
            coinbase_addrs.append(sender)
            sender_class = "coinbase_custodial"
        else:
            sender = f"0xvictim{k:05d}"
            sender_class = "non_custodial"
        target_rec = by_display[target_display]
        typo_rec = by_display[typo_display]
        legit_ts = datetime.strptime(
            typo_rec["registered_at"], "%Y-%m-%dT%H:%M:%SZ"
        ).replace(tzinfo=timezone.utc) + timedelta(days=rng.uniform(1, 100))
        typo_ts = legit_ts + timedelta(days=rng.uniform(-50, 50))
        amount = rng.uniform(0.01, 3.0)
        emit(sender, target_rec["resolution"][asset], rng.uniform(0.01, 3.0), legit_ts)
        emit(sender, typo_rec["resolution"][asset], amount, typo_ts)
        manifest.events.append(
            {
                "sender": sender,
                "sender_class": sender_class,
                "target": target_display,
                "typo": typo_display,
                "amount": round(amount, 6),
                "legit_ts": _iso(legit_ts),
                "typo_ts": _iso(typo_ts),
                "asset": asset,
            }
        )

    # A few custodial-but-not-coinbase senders hitting squat addresses only,
    # to exercise the non-resolving-custodial filter.
    other_custodial: list[str] = []
    squat_recs = [by_display[d] for d in sorted(squat_displays)]
    for k, rec in enumerate(squat_recs[:5]):
        sender = f"0xexch{k:05d}"
        other_custodial.append(sender)
        reg_ts = datetime.strptime(rec["registered_at"], "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
        emit(sender, rec["resolution"][asset], rng.uniform(0.01, 1.0),
             reg_ts + timedelta(days=rng.uniform(0, 30)))

    manifest.labels = (
        [{"address": a, "kind": "exchange", "is_coinbase": True} for a in coinbase_addrs]
        + [{"address": a, "kind": "exchange", "is_coinbase": False} for a in other_custodial]
    )

    days = sorted(
        {rec["timestamp"][:10] for rec in txs} | {rec["timestamp"][:10] for rec in utxos}
    )
    prices = ["date,asset,usd_close"] + [
        f"{day},{asset},{_price_for(day, asset):.2f}" for day in days
    ]
    return txs, utxos, prices
