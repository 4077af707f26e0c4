"""Seeded fixture sets for the two pipeline workloads, with their planted truth.

The program's own simulator is not used: its target selection is quadratic in
the corpus size. Every size below is fixed, so only the content changes with
the seed; label lengths cycle through fixed values so the number of typo
variants per target is the same for every seed.

Planting rules, each confirmed with the benchmark's own oracle:
  - targets (and popular wallets labelled as exchanges or token contracts) are
    pairwise at least 3 edits apart, so a typo of one is never a typo of another;
  - background names are at least 2 edits from every target;
  - each planted squat, defensive name and pre-dated name is a single-edit
    variant of exactly the target it was made from;
  - background transaction senders (and UTXO filler inputs) are unique, so the
    only common senders are the planted victim events;
  - every timestamp is UTC ("Z"): ingest shifts timestamps that carry another
    offset, so such records are kept out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import oracle

EPOCH = datetime(2019, 1, 1, tzinfo=timezone.utc)
PRICE_DAYS = 6 * 366
CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"
UD_TLDS = ("crypto", "nft", "x", "wallet", "bitcoin", "dao", "888", "blockchain")

# Sizes per workload. n_targets counts ENS/ADA targets, n_ud_targets UD ones;
# inputs_per_payment applies to UTXO payments only.
SPECS = {
    "ens-ud-crosstld": dict(
        namespace="eth",
        n_targets=100,
        n_ud_targets=16,
        n_background=1000,
        n_ud_background=500,
        target_lengths=(7, 8, 9, 10),
        bg_payments=(0, 2),
        target_payments=(40, 60),
        squatter_extra_names=(0,),
    ),
    "ada-utxo": dict(
        namespace="adah",
        n_targets=40,
        n_ud_targets=0,
        n_background=1600,
        n_ud_background=0,
        target_lengths=(8, 9, 10, 11),
        bg_payments=(1, 3),
        target_payments=(120, 140),
        inputs_per_payment=(1, 4),
        squatter_extra_names=(2, 6, 14, 30, 62, 120),
    ),
}


@dataclass
class Planted:
    """What the program's outputs must show for one fixture set."""

    namespace_of: dict[str, str] = field(default_factory=dict)  # display -> namespace
    targets: set[str] = field(default_factory=set)
    # target display -> {"squats": {display: (model, owner)}, "defensive": set}
    clusters: dict[str, dict] = field(default_factory=dict)
    cross_tld: set[tuple[str, str]] = field(default_factory=set)  # (target, squat)
    absent: set[str] = field(default_factory=set)
    # (sender, sender_class, target, typo) -> {"n_legit", "n_typo", "usd_values"}
    common: dict[tuple, dict] = field(default_factory=dict)
    excluded_senders: set[str] = field(default_factory=set)
    utxo_inputs: dict[str, tuple[int, float]] = field(default_factory=dict)  # hash -> (k, amount)
    prices: dict[tuple[str, str], float] = field(default_factory=dict)  # (day, asset) -> usd

    @property
    def typo_usd_values(self) -> list[float]:
        return [v for rec in self.common.values() for v in rec["usd_values"]]


def word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(CONSONANTS if i % 2 == 0 else VOWELS) for i in range(n))


def display(label: str, namespace: str) -> str:
    if namespace == "eth":
        return f"{label}.eth"
    if namespace == "adah":
        return f"${label}"
    return f"{label}.{namespace[3:]}"


def label_of(display_name: str, namespace: str) -> str:
    """Inverse of ``display``."""
    if namespace == "adah":
        return display_name.removeprefix("$")
    return display_name.rsplit(".", 1)[0]


def _iso(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


class _FixtureSet:
    def __init__(self, workload: str, seed: int, sizes: dict | None = None):
        self.spec = {**SPECS[workload], **(sizes or {})}
        self.rng = random.Random(f"{workload}:{seed}")
        self.ns = self.spec["namespace"]
        self.asset = "ADA" if self.ns == "adah" else "ETH"
        self.utxo = self.ns == "adah"
        self.alphabet = oracle.alphabet_for(self.ns)
        self.planted = Planted()
        self.records: list[dict] = []
        self.payments: list[dict] = []
        self.labels: list[dict] = []
        self.used_labels: set[str] = set()
        self.far_index = oracle.NearIndex(k=2)  # targets and labelled popular names
        self.target_index = oracle.NearIndex(k=1)
        self.n_senders = 0
        self.n_hashes = 0

    # --- names -------------------------------------------------------------

    def fresh_label(self, length: int) -> str:
        while True:
            if self.ns == "adah" and length >= 7 and self.rng.random() < 0.6:
                left = self.rng.randint(3, length - 4)
                label = word(self.rng, left) + self.rng.choice("_.") + word(self.rng, length - left - 1)
            else:
                label = word(self.rng, length)
            if label not in self.used_labels:
                return label

    def far_label(self, length: int) -> str:
        """A label at least 3 edits from every target and labelled popular name."""
        while True:
            label = self.fresh_label(length)
            if not self.far_index.near(label):
                self.far_index.add(label)
                self.used_labels.add(label)
                return label

    def background_label(self) -> str:
        """A label at least 2 edits from every target."""
        while True:
            label = self.fresh_label(self.rng.randint(5, 14))
            if not self.target_index.near(label):
                self.used_labels.add(label)
                return label

    def variant_of(self, label: str) -> str:
        variants = sorted(v for v in oracle.single_edits(label, self.alphabet) if v not in self.used_labels)
        choice = self.rng.choice(variants)
        self.used_labels.add(choice)
        return choice

    def register(self, label: str, namespace: str, owner: str, resolution: str, ts: datetime) -> str:
        disp = display(label, namespace)
        self.records.append(
            {
                "display": disp,
                "namespace": namespace,
                "owner": owner,
                "resolution": {self.asset: resolution},
                "registered_at": _iso(ts),
                "source": "ens" if namespace == "eth" else "adah" if namespace == "adah" else "ud-eth",
            }
        )
        self.planted.namespace_of[disp] = namespace
        return disp

    def random_ts(self, start: datetime, days: float) -> datetime:
        return start + timedelta(seconds=self.rng.randrange(int(days * 86400)))

    # --- payments ----------------------------------------------------------

    def sender(self, prefix: str = "bg") -> str:
        self.n_senders += 1
        return f"{'addr_' if self.utxo else '0x'}{prefix}{self.n_senders:07d}"

    def pay(self, sender: str, receiver: str, ts: datetime) -> float:
        """One payment; returns the amount the sender itself paid."""
        amount = round(self.rng.uniform(0.5, 400.0) if self.utxo else self.rng.uniform(0.01, 5.0), 6)
        self.n_hashes += 1
        h = f"{'tx' if self.utxo else '0x'}{self.n_hashes:08x}"
        if self.utxo:
            k = self.rng.randint(*self.spec["inputs_per_payment"])
            inputs = [sender] + [self.sender("in") for _ in range(k - 1)]
            self.rng.shuffle(inputs)
            self.payments.append(
                {"hash": h, "inputs": inputs, "output": receiver, "amount": amount, "timestamp": _iso(ts)}
            )
            self.planted.utxo_inputs[h] = (k, amount)
            return round(amount / k, 9)
        self.payments.append(
            {"hash": h, "sender": sender, "receiver": receiver, "amount": amount,
             "asset": self.asset, "timestamp": _iso(ts)}
        )
        return amount

    def usd(self, amount: float, ts: datetime) -> float:
        return amount * self.planted.prices[(ts.date().isoformat(), self.asset)]

    # --- scenario ----------------------------------------------------------

    def build(self) -> None:
        spec, rng, p = self.spec, self.rng, self.planted
        for d in range(PRICE_DAYS):
            day = (EPOCH.date() + timedelta(days=d)).isoformat()
            p.prices[(day, self.asset)] = round(rng.uniform(0.2, 3.0) if self.utxo else rng.uniform(100, 4000), 2)

        namespaces = [self.ns] * spec["n_targets"] + [
            "ud:" + UD_TLDS[i % len(UD_TLDS)] for i in range(spec["n_ud_targets"])
        ]
        lengths = spec["target_lengths"]
        targets = []
        for i, ns in enumerate(namespaces):
            label = self.far_label(lengths[i % len(lengths)])
            self.target_index.add(label)
            owner, res = f"{self._addr('t', i)}o", f"{self._addr('t', i)}r"
            ts = self.random_ts(EPOCH, 365)
            disp = self.register(label, ns, owner, res, ts)
            p.targets.add(disp)
            p.clusters[disp] = {"squats": {}, "defensive": set()}
            targets.append((i, label, ns, owner, res, ts, disp))

        # Popular wallets labelled as exchanges or token contracts: never targets.
        for j, kind in enumerate(("exchange", "exchange", "exchange", "token_contract")):
            label = self.far_label(8)
            res = f"{self._addr('x', j)}r"
            disp = self.register(label, self.ns, f"{self._addr('x', j)}o", res, self.random_ts(EPOCH, 365))
            variant = self.register(self.variant_of(label), self.ns, f"{self._addr('xs', j)}o",
                                    f"{self._addr('xs', j)}r", self.random_ts(EPOCH + timedelta(days=400), 300))
            p.absent |= {disp, variant}
            self.labels.append({"address": res, "kind": kind, "is_coinbase": False})
            for _ in range(200):
                self.pay(self.sender(), res, self.random_ts(EPOCH + timedelta(days=400), 900))

        squats = []  # (target tuple, squat display, squat res, squat ts)
        n_squat = 0
        squatters: list[str] = []
        for t in targets:
            i, label, ns, owner, res, ts, disp = t
            plan = [ns] * (1 + i % 2)
            if ns.startswith("ud:"):
                plan.append("ud:" + rng.choice([tld for tld in UD_TLDS if "ud:" + tld != ns]))
            for sq_ns in plan:
                wallet = n_squat // 3
                if wallet == len(squatters):
                    squatters.append(f"{self._addr('s', wallet)}o")
                sq_label = self.variant_of(label)
                sq_res = f"{self._addr('sr', n_squat)}r"
                sq_ts = self.random_ts(ts + timedelta(days=1), 600)
                sq_disp = self.register(sq_label, sq_ns, squatters[wallet], sq_res, sq_ts)
                model = oracle.top_model(sq_label, label, self.alphabet)
                p.clusters[disp]["squats"][sq_disp] = (model, squatters[wallet])
                if sq_ns != ns:
                    p.cross_tld.add((disp, sq_disp))
                squats.append((t, sq_disp, sq_res, sq_ts))
                n_squat += 1
                self.pay(self.sender(), sq_res, self.random_ts(sq_ts, 30))
            if i % 5 == 0:
                d_disp = self.register(self.variant_of(label), ns, owner, f"{self._addr('d', i)}r",
                                       self.random_ts(ts + timedelta(days=1), 300))
                p.clusters[disp]["defensive"].add(d_disp)
            if i % 7 == 3:
                early = ts - timedelta(days=1) - timedelta(seconds=rng.randrange(100 * 86400))
                p.absent.add(self.register(self.variant_of(label), ns, f"{self._addr('e', i)}o",
                                           f"{self._addr('e', i)}r", early))
            if ns == "eth" and i % 10 == 1:
                # A subdomain of a popular wallet, plus a typo of it: neither may
                # become a target or a squat.
                sub = "pay." + label
                p.absent.add(self.register(sub, ns, owner, res, ts + timedelta(days=2)))
                p.absent.add(self.register("apy." + label, ns, f"{self._addr('u', i)}o",
                                           f"{self._addr('u', i)}r", ts + timedelta(days=30)))
            for _ in range(rng.randint(*spec["target_payments"])):
                self.pay(self.sender(), res, self.random_ts(ts, 1000))

        # Squatter wallets own unrelated names too; their portfolios feed the
        # similarity analysis in report.
        extra = spec["squatter_extra_names"]
        n_bg = 0
        for w, wallet in enumerate(squatters):
            for _ in range(extra[w % len(extra)]):
                self.register(self.background_label(), self.ns, wallet, f"{self._addr('b', n_bg)}r",
                              self.random_ts(EPOCH, 1400))
                n_bg += 1
        bg_namespaces = [self.ns] * spec["n_background"] + [
            "ud:" + UD_TLDS[i % len(UD_TLDS)] for i in range(spec["n_ud_background"])
        ]
        for k, ns in enumerate(bg_namespaces):
            res = f"{self._addr('b', n_bg)}r"
            ts = self.random_ts(EPOCH, 1400)
            self.register(self.background_label(), ns, f"{self._addr('bo', k // 2)}o", res, ts)
            n_bg += 1
            for _ in range(rng.randint(*spec["bg_payments"])):
                self.pay(self.sender(), res, self.random_ts(ts, 300))

        # Victim events: one sender pays both a target and one of its squats.
        classes = ("coinbase_custodial", "non_custodial", "other_custodial")
        for j, (t, sq_disp, sq_res, sq_ts) in enumerate(squats):
            if j % 4 == 3:
                continue
            sender_class = classes[j % 3]
            sender = self.sender("v")
            if sender_class != "non_custodial":
                self.labels.append({"address": sender, "kind": "exchange",
                                    "is_coinbase": sender_class == "coinbase_custodial"})
            n_legit, n_typo = 1 + j % 2, 1 + (j // 2) % 2
            for _ in range(n_legit):
                self.pay(sender, t[4], self.random_ts(sq_ts, 200))
            usd_values = []
            for _ in range(n_typo):
                ts = self.random_ts(sq_ts, 200)
                usd_values.append(self.usd(self.pay(sender, sq_res, ts), ts))
            if sender_class == "other_custodial":
                p.excluded_senders.add(sender)
            else:
                p.common[(sender, sender_class, t[6], sq_disp)] = {
                    "n_legit": n_legit, "n_typo": n_typo, "usd_values": usd_values,
                }

    def _addr(self, kind: str, i: int) -> str:
        return f"{'addr_' if self.utxo else '0x'}{kind}{i:06d}"

    def write(self, data_dir: Path) -> None:
        txs_dir = "utxos" if self.utxo else "txs"
        for sub, rows in (("registrations", self.records), (txs_dir, self.payments)):
            (data_dir / sub).mkdir(parents=True, exist_ok=True)
            (data_dir / sub / f"{sub}.jsonl").write_text(
                "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
            )
        (data_dir / "labels.jsonl").write_text("".join(json.dumps(r) + "\n" for r in self.labels))
        (data_dir / "prices.csv").write_text(
            "date,asset,usd_close\n"
            + "".join(f"{day},{asset},{usd:.2f}\n" for (day, asset), usd in sorted(self.planted.prices.items()))
        )


def build(workload: str, seed: int, data_dir: Path, sizes: dict | None = None) -> Planted:
    """Write the fixture set for ``workload`` under ``data_dir``; return its truth.

    ``sizes`` overrides entries of the workload's spec (the tests use small sets).
    """
    fixture_set = _FixtureSet(workload, seed, sizes)
    fixture_set.build()
    fixture_set.write(Path(data_dir))
    return fixture_set.planted


def n_targets(workload: str) -> int:
    spec = SPECS[workload]
    return spec["n_targets"] + spec["n_ud_targets"]
