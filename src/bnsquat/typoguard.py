"""Wallet-embeddable typo guard: cold (global lists) and warm (local history) checks.

The guard is advisory; it returns verdicts and never blocks. Names the user has
already sent to take precedence over every warning rule, so a legitimate name
that happens to be a variant of another history entry is never flagged.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Container, Iterable, Iterator, TextIO

from .corpus import Name, parse_display
from .errors import ParseError
from .typo_models import NameIndex, TypoModel, alphabet_for_namespace, classify, primary_model


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


def _timestamp(value, line: int, key: str) -> datetime:
    """A history timestamp that ``fromisoformat`` rejected, or a ParseError.

    Python 3.10's ``fromisoformat`` does not read a trailing "Z"; later ones do.
    """
    if isinstance(value, str) and value.endswith("Z"):
        try:
            return datetime.fromisoformat(value[:-1] + "+00:00")
        except ValueError:
            pass
    raise ParseError(f"not an ISO 8601 timestamp: {value!r}", line=line, field=key)


@dataclass
class GuardHistory:
    """User-local record of names previously sent to. Single-writer."""

    entries: dict[str, HistoryEntry] = field(default_factory=dict)
    # Names in entry order: parsed on the first names() call, then extended by record_send.
    _names: list[Name] | None = field(default=None, repr=False, compare=False)
    # The same names for the warm rule: built on its first use, then extended by record_send.
    _index: NameIndex | None = field(default=None, repr=False, compare=False)

    def __contains__(self, name: Name) -> bool:
        return name.display in self.entries

    def names(self) -> list[Name]:
        if self._names is None:
            self._names = [parse_display(display) for display in self.entries]
        return self._names

    def near(self, name: Name) -> list[Name]:
        """History names that may be one edit from ``name``, in entry order."""
        if self._index is None:
            self._index = NameIndex(self.names())
        return self._index.near(name)

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
    def load(cls, records: Iterable[dict], lines: Iterable[int] | None = None) -> "GuardHistory":
        """Build a history from its JSONL records; ParseError names the line and field.

        ``lines`` gives each record's line in its file; by default records are
        numbered from 1.
        """
        history = cls()
        for line, obj in zip(itertools.count(1) if lines is None else lines, records):
            try:
                display, first, last = obj["display"], obj["first_used"], obj["last_used"]
                count = obj["send_count"]
            except KeyError as exc:
                raise ParseError("missing field", line=line, field=exc.args[0]) from None
            except TypeError as exc:
                raise ParseError(f"record must be an object, not {type(obj).__name__}", line=line) from exc
            if not isinstance(display, str):
                raise ParseError(f"display must be a string: {display!r}", line=line, field="display")
            try:
                send_count = int(count)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"not an integer: {count!r}", line=line, field="send_count") from exc
            try:
                first_used = datetime.fromisoformat(first)
            except (TypeError, ValueError):
                first_used = _timestamp(first, line, "first_used")
            try:
                last_used = datetime.fromisoformat(last)
            except (TypeError, ValueError):
                last_used = _timestamp(last, line, "last_used")
            history.entries[display] = HistoryEntry(first_used, last_used, send_count)
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
        if history._index is not None:
            history._index.add(name)
    else:
        entry.send_count += 1
        entry.last_used = max(entry.last_used, at)
    return history


def _variants_of(recipient: Name, candidates: Iterable[Name], alphabet: str) -> Iterator[tuple[Name, TypoModel]]:
    """(candidate, model) for each candidate the recipient is a one-typo variant of."""
    for cand in candidates:
        models = classify(recipient.label, cand.label, alphabet)
        if models:
            yield cand, primary_model(models)


def check(
    history: GuardHistory,
    blocklist: Container[Name],
    popular: NameIndex,
    recipient: Name,
) -> GuardVerdict:
    """Evaluate a recipient against history and the cold/warm rules.

    Order: known-good history hit allows; blocklist hit warns; variant of a
    popular name warns (cold), reporting the display-smallest one; variant of a
    history name warns (warm), reporting the earliest entry; else allow.
    """
    if recipient in history:
        return GuardVerdict(Decision.ALLOW)
    if recipient in blocklist:
        return GuardVerdict(Decision.WARN, Reason.COLD_BLOCKLIST)
    alphabet = alphabet_for_namespace(recipient.namespace)
    # Display order is not label order ("ab-c.eth" < "ab.eth"), so compare displays.
    hit = min(_variants_of(recipient, popular.near(recipient), alphabet), key=lambda h: h[0].display, default=None)
    if hit:
        return GuardVerdict(Decision.WARN, Reason.COLD_VARIANT_OF_POPULAR, *hit)
    hit = next(_variants_of(recipient, history.near(recipient), alphabet), None)
    if hit:
        return GuardVerdict(Decision.WARN, Reason.WARM_VARIANT_OF_HISTORY, *hit)
    return GuardVerdict(Decision.ALLOW)


def load_name_list(lines: Iterable[str]) -> NameIndex:
    """Parse a blocklist/popular-list file: one display per line, "#" comments."""
    names = NameIndex()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            names.add(parse_display(line))
    return names
