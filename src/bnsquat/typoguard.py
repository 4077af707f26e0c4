"""Wallet-embeddable typo guard: cold (global lists) and warm (local history) checks.

The guard is advisory; it returns verdicts and never blocks. Names the user has
already sent to take precedence over every warning rule, so a legitimate name
that happens to be a variant of another history entry is never flagged.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, TextIO

from .corpus import Name, parse_display
from .typo_models import TypoModel, alphabet_for_namespace, classify, primary_model


class Decision(enum.Enum):
    ALLOW = "Allow"
    WARN = "Warn"


class Reason(enum.Enum):
    NONE = "None"
    COLD_BLOCKLIST = "ColdBlocklist"
    COLD_VARIANT_OF_POPULAR = "ColdVariantOfPopular"
    WARM_VARIANT_OF_HISTORY = "WarmVariantOfHistory"


@dataclass(frozen=True)
class GuardVerdict:
    decision: Decision
    reason: Reason = Reason.NONE
    matched_target: Name | None = None
    model: TypoModel | None = None


@dataclass
class HistoryEntry:
    first_used: datetime
    last_used: datetime
    send_count: int = 1


@dataclass
class GuardHistory:
    """User-local record of names previously sent to. Single-writer."""

    entries: dict[str, HistoryEntry] = field(default_factory=dict)
    # Names in entry order: parsed on the first names() call, then extended by record_send.
    _names: list[Name] | None = field(default=None, repr=False, compare=False)

    def __contains__(self, name: Name) -> bool:
        return name.display in self.entries

    def names(self) -> list[Name]:
        if self._names is None:
            self._names = [parse_display(display) for display in self.entries]
        return self._names

    def dump(self, fh: TextIO) -> None:
        for display, entry in sorted(self.entries.items()):
            fh.write(
                json.dumps(
                    {
                        "display": display,
                        "first_used": entry.first_used.isoformat(),
                        "last_used": entry.last_used.isoformat(),
                        "send_count": entry.send_count,
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    @classmethod
    def load(cls, records: Iterable[dict]) -> "GuardHistory":
        history = cls()
        for obj in records:
            history.entries[obj["display"]] = HistoryEntry(
                first_used=datetime.fromisoformat(obj["first_used"]),
                last_used=datetime.fromisoformat(obj["last_used"]),
                send_count=int(obj["send_count"]),
            )
        return history


def record_send(history: GuardHistory, name: Name, at: datetime | None = None) -> GuardHistory:
    """Note a completed send; creates or updates the history entry in place."""
    if at is None:
        at = datetime.now(timezone.utc)
    entry = history.entries.get(name.display)
    if entry is None:
        history.entries[name.display] = HistoryEntry(first_used=at, last_used=at)
        if history._names is not None:
            history._names.append(name)
    else:
        entry.send_count += 1
        entry.last_used = max(entry.last_used, at)
    return history


def _first_variant_match(recipient: Name, candidates: Iterable[Name], alphabet: str) -> tuple[Name, TypoModel] | None:
    # Only same-namespace names of length within one edit can match; cheap pre-filter.
    rlen = len(recipient.label)
    for cand in candidates:
        if cand.namespace != recipient.namespace or abs(len(cand.label) - rlen) > 1:
            continue
        models = classify(recipient.label, cand.label, alphabet)
        if models:
            return cand, primary_model(models)
    return None


def check(
    history: GuardHistory,
    blocklist: set[Name],
    popular: set[Name],
    recipient: Name,
    alphabet: str | None = None,
) -> GuardVerdict:
    """Evaluate a recipient against history and the cold/warm rules.

    Order: known-good history hit allows; blocklist hit warns; variant of a
    popular name warns (cold); variant of a history name warns (warm); else allow.
    """
    if alphabet is None:
        alphabet = alphabet_for_namespace(recipient.namespace)
    if recipient in history:
        return GuardVerdict(Decision.ALLOW)
    if recipient in blocklist:
        return GuardVerdict(Decision.WARN, Reason.COLD_BLOCKLIST)
    hit = _first_variant_match(recipient, sorted(popular, key=lambda n: n.display), alphabet)
    if hit:
        return GuardVerdict(Decision.WARN, Reason.COLD_VARIANT_OF_POPULAR, *hit)
    hit = _first_variant_match(recipient, history.names(), alphabet)
    if hit:
        return GuardVerdict(Decision.WARN, Reason.WARM_VARIANT_OF_HISTORY, *hit)
    return GuardVerdict(Decision.ALLOW)


def load_name_list(lines: Iterable[str]) -> set[Name]:
    """Parse a blocklist/popular-list file: one display per line, "#" comments."""
    names: set[Name] = set()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            names.add(parse_display(line))
    return names
