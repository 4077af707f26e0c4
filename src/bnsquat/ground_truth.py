"""Popularity ranking of resolution wallets and selection of legitimate targets.

Wallets are scored by transactions-per-held-domain, exchange/token addresses are
filtered out by label lists, and the names held by the top wallets become the
target set.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .corpus import Dataset, Name, is_subdomain, require_fields
from .errors import ParseError

log = logging.getLogger(__name__)

DEFAULT_TOP_N = 10_000
DEFAULT_MIN_LABEL_LEN = 5


@dataclass(frozen=True)
class WalletStats:
    address: str
    w_t: int  # transactions linked to the resolution address
    w_d: int  # distinct names resolving to it

    @property
    def score(self) -> float:
        return self.w_t / self.w_d


@dataclass
class AddressLabelSet:
    """Known exchange wallets and token contracts; coinbase is a subset of exchange."""

    exchange_addresses: set[str] = field(default_factory=set)
    token_contracts: set[str] = field(default_factory=set)
    coinbase_addresses: set[str] = field(default_factory=set)

    def __post_init__(self):
        if not self.coinbase_addresses <= self.exchange_addresses:
            raise ValueError("coinbase addresses must be a subset of exchange addresses")
        if self.exchange_addresses & self.token_contracts:
            raise ValueError("exchange and token-contract sets must be disjoint")

    @classmethod
    def from_records(cls, records: Iterable[dict], lines: Iterable[int] | None = None) -> "AddressLabelSet":
        """Build from label fixture records {address, kind, is_coinbase}; a
        malformed record, or an address given both kinds, is a ParseError naming
        the line and field. ``lines`` gives each record's line in its file; by
        default records are numbered from 1."""
        labels = cls()
        for line, obj in zip(itertools.count(1) if lines is None else lines, records):
            require_fields(obj, ("address", "kind"), line)
            addr, kind = obj["address"], obj["kind"]
            if not isinstance(addr, str):
                raise ParseError(f"address must be a string: {addr!r}", line=line, field="address")
            if kind == "exchange":
                own, other = labels.exchange_addresses, labels.token_contracts
            elif kind == "token_contract":
                own, other = labels.token_contracts, labels.exchange_addresses
            else:
                raise ParseError(f"unknown label kind {kind!r}", line=line, field="kind")
            if addr in other:
                raise ParseError(f"{addr} is labelled both exchange and token_contract", line=line, field="kind")
            own.add(addr)
            if kind == "exchange" and obj.get("is_coinbase"):
                labels.coinbase_addresses.add(addr)
        return labels

    @property
    def filtered_addresses(self) -> set[str]:
        return self.exchange_addresses | self.token_contracts


def compute_wallet_stats(dataset: Dataset, tx_index: Mapping[str, int]) -> list[WalletStats]:
    """One WalletStats per distinct resolution address; missing tx counts are 0."""
    return [
        WalletStats(address=addr, w_t=tx_index.get(addr, 0), w_d=len(names))
        for addr, names in dataset.by_resolution.items()
    ]


def filter_labeled(stats: list[WalletStats], labels: AddressLabelSet) -> list[WalletStats]:
    """Drop wallets labeled as exchanges or token contracts."""
    bad = labels.filtered_addresses
    return [s for s in stats if s.address not in bad]


def rank_wallets(stats: Iterable[WalletStats]) -> list[WalletStats]:
    """Score descending; ties break on higher w_T, then address, for determinism."""
    return sorted(stats, key=lambda s: (-s.score, -s.w_t, s.address))


def select_targets(
    stats: list[WalletStats],
    dataset: Dataset,
    top_n: int = DEFAULT_TOP_N,
    min_label_len: int = DEFAULT_MIN_LABEL_LEN,
) -> list[Name]:
    """Names resolving to the top-ranked wallets, long enough to be typo targets.

    A wallet holding k names contributes all k, so the target list can exceed
    top_n. Subdomains are excluded.
    """
    if top_n < 1 or min_label_len < 1:
        raise ValueError("top_n and min_label_len must be >= 1")
    ranked = rank_wallets(stats)
    if len(ranked) < top_n:
        log.warning("only %d wallets available for top_n=%d; using all", len(ranked), top_n)
    targets: list[Name] = []
    seen: set[str] = set()
    for wallet in ranked[:top_n]:
        for name in sorted(dataset.by_resolution.get(wallet.address, ()), key=lambda n: n.display):
            reg = dataset.by_display.get(name.display)
            if len(name.label) < min_label_len or name.display in seen:
                continue
            if reg is not None and is_subdomain(reg):
                continue
            seen.add(name.display)
            targets.append(name)
    return targets
