"""Transaction-level success metrics for squatters.

Covers UTXO expansion into per-input transactions, sender classification,
common-sender discovery across legitimate/typo pairs, and USD conversion.
"""

from __future__ import annotations

import csv
import logging
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, datetime, timezone
from typing import Iterable, Mapping

from .corpus import Name, require_fields
from .errors import InvalidField, MissingRate, ParseError
from .ground_truth import AddressLabelSet
from .squat_detector import SquatCluster

log = logging.getLogger(__name__)

SENDER_COINBASE = "coinbase_custodial"
SENDER_OTHER_CUSTODIAL = "other_custodial"
SENDER_NON_CUSTODIAL = "non_custodial"

# Which chain's transactions a namespace settles on.
NAMESPACE_ASSETS = {"eth": ("ETH",), "adah": ("ADA",)}


def assets_for_namespace(namespace: str) -> tuple[str, ...]:
    return NAMESPACE_ASSETS.get(namespace, ("ETH", "MATIC"))


@dataclass(frozen=True)
class Transaction:
    hash: str
    sender: str
    receiver: str
    amount: float  # native units, >= 0
    asset: str
    timestamp: datetime
    origin: str = "account"  # "account" or "utxo_expanded"

    def __post_init__(self):
        if self.amount < 0:
            raise InvalidField("amount must be non-negative", "amount")
        if not self.sender:
            raise InvalidField("sender must be non-empty", "sender")
        if not self.receiver:
            raise InvalidField("receiver must be non-empty", "receiver")


@dataclass(frozen=True)
class UtxoRecord:
    hash: str
    input_addresses: tuple[str, ...]
    output_address: str
    output_amount: float
    timestamp: datetime

    def __post_init__(self):
        if not self.input_addresses:
            raise InvalidField("UTXO record needs at least one input address", "inputs")
        if self.output_amount < 0:
            raise InvalidField("output amount must be non-negative", "amount")


def utxo_expand(record: UtxoRecord) -> list[Transaction]:
    """One Transaction per input address, splitting the output amount evenly."""
    share = record.output_amount / len(record.input_addresses)
    return [
        Transaction(
            hash=record.hash,
            sender=sender,
            receiver=record.output_address,
            amount=share,
            asset="ADA",
            timestamp=record.timestamp,
            origin="utxo_expanded",
        )
        for sender in record.input_addresses
    ]


def _parse_ts(value: str, line: int | None = None) -> datetime:
    try:
        ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except (ValueError, AttributeError) as exc:
        raise ParseError(str(exc), line=line, field="timestamp") from exc
    return ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)


def _amount(value, line: int | None) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"not a number: {value!r}", line=line, field="amount") from exc


def parse_transaction_record(obj: dict, line: int | None = None) -> Transaction:
    """Parse one account-model transaction; a value that Transaction rejects is a
    ParseError naming ``line`` and the field."""
    require_fields(obj, ("hash", "sender", "receiver", "amount", "asset", "timestamp"), line)
    try:
        return Transaction(
            hash=obj["hash"],
            sender=obj["sender"],
            receiver=obj["receiver"],
            amount=_amount(obj["amount"], line),
            asset=obj["asset"],
            timestamp=_parse_ts(obj["timestamp"], line),
        )
    except InvalidField as exc:
        raise ParseError(str(exc), line=line, field=exc.field) from exc


def parse_utxo_record(obj: dict, line: int | None = None) -> UtxoRecord:
    """Parse one UTXO record; a value that UtxoRecord rejects is a ParseError
    naming ``line`` and the field."""
    require_fields(obj, ("hash", "inputs", "output", "amount", "timestamp"), line)
    if not isinstance(obj["inputs"], list):
        raise ParseError(f"inputs must be a list: {obj['inputs']!r}", line=line, field="inputs")
    try:
        return UtxoRecord(
            hash=obj["hash"],
            input_addresses=tuple(obj["inputs"]),
            output_address=obj["output"],
            output_amount=_amount(obj["amount"], line),
            timestamp=_parse_ts(obj["timestamp"], line),
        )
    except InvalidField as exc:
        raise ParseError(str(exc), line=line, field=exc.field) from exc


class TxStore:
    """Immutable index of transactions by receiver."""

    def __init__(self, txs: Iterable[Transaction] = ()):
        self.transactions: list[Transaction] = list(txs)
        self.by_receiver: dict[str, list[Transaction]] = defaultdict(list)
        for tx in self.transactions:
            self.by_receiver[tx.receiver].append(tx)

    def __len__(self) -> int:
        return len(self.transactions)


def tx_count_index(txs: Iterable[Transaction]) -> dict[str, int]:
    """Incoming + outgoing transaction counts per address, for wallet ranking."""
    counts: Counter[str] = Counter()
    for tx in txs:
        counts[tx.receiver] += 1
        counts[tx.sender] += 1
    return dict(counts)


def classify_sender(address: str, labels: AddressLabelSet) -> str:
    if address in labels.coinbase_addresses:
        return SENDER_COINBASE
    if address in labels.exchange_addresses:
        return SENDER_OTHER_CUSTODIAL
    return SENDER_NON_CUSTODIAL


class PriceTable:
    """Daily USD closing rates keyed by (UTC date, asset symbol)."""

    def __init__(self, rates: Mapping[tuple[date, str], float] | None = None):
        self._rates: dict[tuple[date, str], float] = {}
        for key, rate in (rates or {}).items():
            if rate <= 0:
                raise ValueError(f"rate must be positive: {key} -> {rate}")
            self._rates[key] = rate

    @classmethod
    def from_csv(cls, lines: Iterable[str]) -> "PriceTable":
        """Parse "date,asset,usd_close" rows (with or without a header). A bad
        date, an empty asset, or a rate that is not a positive number is a
        ParseError naming the row's line and field."""
        rates: dict[tuple[date, str], float] = {}
        for line, row in enumerate(csv.reader(lines), 1):
            if not row or row[0] == "date":
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 columns, got {len(row)}", line=line)
            day, asset, close = row
            try:
                key = (date.fromisoformat(day), asset)
            except ValueError as exc:
                raise ParseError(str(exc), line=line, field="date") from exc
            if not asset:
                raise ParseError("asset must be non-empty", line=line, field="asset")
            try:
                rate = float(close)
            except ValueError as exc:
                raise ParseError(f"not a number: {close!r}", line=line, field="usd_close") from exc
            if not 0 < rate < math.inf:
                raise ParseError(f"rate must be positive and finite: {close!r}", line=line, field="usd_close")
            rates[key] = rate
        return cls(rates)

    def rate(self, day: date, asset: str) -> float:
        try:
            return self._rates[(day, asset)]
        except KeyError:
            raise MissingRate(day, asset) from None


def to_usd(tx: Transaction, prices: PriceTable) -> float:
    """Native amount times the closing rate on the transaction's UTC day."""
    return tx.amount * prices.rate(tx.timestamp.astimezone(timezone.utc).date(), tx.asset)


@dataclass(frozen=True)
class CommonSenderRecord:
    sender: str
    sender_class: str
    target_name: Name
    typo_name: Name
    legit_txs: tuple[Transaction, ...]
    typo_txs: tuple[Transaction, ...]
    usd_to_typo: float | None
    delta_days: float


def _delta_days(legit_txs: Iterable[Transaction], typo_txs: Iterable[Transaction]) -> float:
    """Earliest typo transaction minus its nearest legitimate one, in days."""
    first_typo = min(tx.timestamp for tx in typo_txs)
    nearest = min((tx.timestamp for tx in legit_txs), key=lambda ts: abs(ts - first_typo))
    return (first_typo - nearest).total_seconds() / 86400.0


def common_senders(
    cluster: SquatCluster,
    tx_store: TxStore,
    labels: AddressLabelSet,
    prices: PriceTable | None = None,
) -> list[CommonSenderRecord]:
    """Senders that transacted with both a target's and a squat's resolution address.

    Pairs without a shared chain between the two resolution records are skipped
    with a warning. Other-custodial senders are excluded (they cannot resolve
    names). USD totals are filled only when a price table is supplied.
    """
    records: list[CommonSenderRecord] = []
    target_res = cluster.target.resolution_addresses
    for entry in cluster.squats:
        squat_res = entry.registration.resolution_addresses
        shared = [
            sym
            for sym in assets_for_namespace(cluster.target.name.namespace)
            if sym in target_res and sym in squat_res
        ]
        if not shared:
            log.warning(
                "no shared resolution chain for %s / %s; pair skipped",
                cluster.target.name.display,
                entry.registration.name.display,
            )
            continue
        for symbol in shared:
            legit_by_sender: dict[str, list[Transaction]] = defaultdict(list)
            typo_by_sender: dict[str, list[Transaction]] = defaultdict(list)
            for tx in tx_store.by_receiver.get(target_res[symbol], ()):
                if tx.asset == symbol:
                    legit_by_sender[tx.sender].append(tx)
            for tx in tx_store.by_receiver.get(squat_res[symbol], ()):
                if tx.asset == symbol:
                    typo_by_sender[tx.sender].append(tx)
            for sender in sorted(legit_by_sender.keys() & typo_by_sender.keys()):
                sender_class = classify_sender(sender, labels)
                if sender_class == SENDER_OTHER_CUSTODIAL:
                    continue
                legit = tuple(legit_by_sender[sender])
                typo = tuple(typo_by_sender[sender])
                usd = sum(to_usd(tx, prices) for tx in typo) if prices else None
                records.append(
                    CommonSenderRecord(
                        sender=sender,
                        sender_class=sender_class,
                        target_name=cluster.target.name,
                        typo_name=entry.registration.name,
                        legit_txs=legit,
                        typo_txs=typo,
                        usd_to_typo=usd,
                        delta_days=_delta_days(legit, typo),
                    )
                )
    return records


@dataclass(frozen=True)
class FundsSummary:
    mean_usd: float
    median_usd: float


def funds_summary(records: list[CommonSenderRecord], prices: PriceTable) -> FundsSummary:
    """Per-transaction USD mean/median over funds sent to typo names."""
    values = [to_usd(tx, prices) for record in records for tx in record.typo_txs]
    if not values:
        return FundsSummary(0.0, 0.0)
    return FundsSummary(mean_usd=statistics.fmean(values), median_usd=statistics.median(values))


def all_senders_counts(
    cluster: SquatCluster, tx_store: TxStore
) -> dict[str, dict[str, int]]:
    """Per typo name: distinct senders and total transactions to its address.

    Both counters are reported because the per-name victim counts can be read
    either way.
    """
    out: dict[str, dict[str, int]] = {}
    for entry in cluster.squats:
        assets = assets_for_namespace(entry.registration.name.namespace)
        senders: set[str] = set()
        n_txs = 0
        for symbol in assets:
            addr = entry.registration.resolution_addresses.get(symbol)
            if addr is None:
                continue
            for tx in tx_store.by_receiver.get(addr, ()):
                if tx.asset == symbol:
                    senders.add(tx.sender)
                    n_txs += 1
        out[entry.registration.name.display] = {
            "unique_senders": len(senders),
            "transactions": n_txs,
        }
    return out

