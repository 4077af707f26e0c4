"""Core data model: normalized names, registrations, and the indexed dataset.

All matching in the toolkit happens on lowercase ASCII labels; internationalized
labels are stored in their punycode ("xn--") form. The Dataset is immutable after
load and safe for concurrent reads.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator

from .errors import EmptyLabel, InvalidField, ParseError, UnknownNamespace

log = logging.getLogger(__name__)

SOURCES = ("ens", "ud-eth", "ud-polygon", "adah")
CHAIN_SYMBOLS = ("ETH", "MATIC", "ADA")

_UD_NS_RE = re.compile(r"^ud:([a-z0-9]+)$")


def _valid_namespace(namespace: str) -> bool:
    """eth, adah, or ud:<tld> for any TLD but eth, whose display would be an ENS name's."""
    return namespace in ("eth", "adah") or (namespace != "ud:eth" and bool(_UD_NS_RE.match(namespace)))


def _to_punycode(label: str) -> str:
    if label.isascii():
        return label
    return "xn--" + label.encode("punycode").decode("ascii")


@dataclass(frozen=True)
class Name:
    """A normalized label within a namespace, the unit every algorithm operates on."""

    label: str
    namespace: str  # "eth", "ud:<tld>", or "adah"

    def __post_init__(self):
        if not self.label:
            raise EmptyLabel("label must be non-empty")
        if not _valid_namespace(self.namespace):
            raise UnknownNamespace(f"unknown namespace {self.namespace!r}")

    @property
    def display(self) -> str:
        if self.namespace == "eth":
            return f"{self.label}.eth"
        if self.namespace == "adah":
            return f"${self.label}"
        tld = _UD_NS_RE.match(self.namespace).group(1)
        return f"{self.label}.{tld}"


def normalize_name(raw: str, namespace: str) -> Name:
    """Normalize a raw display form into a Name.

    Lowercases, strips the namespace separator (".eth"/".<tld>" suffix or "$"
    prefix), and converts non-ASCII labels to punycode.
    """
    if not _valid_namespace(namespace):
        raise UnknownNamespace(f"unknown namespace {namespace!r}")
    label = raw.strip().lower()
    if namespace == "adah":
        label = label.removeprefix("$")
    elif namespace == "eth":
        label = label.removesuffix(".eth")
    else:
        tld = _UD_NS_RE.match(namespace).group(1)
        label = label.removesuffix("." + tld)
    if not label:
        raise EmptyLabel(f"nothing left of {raw!r} after stripping")
    return Name(label=_to_punycode(label), namespace=namespace)


def _tld(display: str, line: int | None = None) -> str:
    if "." not in display:
        raise ParseError(f"display {display!r} has no TLD", line=line, field="display")
    return display.rsplit(".", 1)[1].lower()


def parse_display(display: str) -> Name:
    """Parse "$x" (ADA Handle), "x.eth" or "x.<tld>" (UD) into a Name; ParseError
    if there is no TLD. "$" goes first: ADA Handles may hold ".", ENS labels no "$".
    Errors are those of ``normalize_name(display, <namespace>)``.
    """
    display = display.strip().lower()
    if display.startswith("$"):
        label, namespace = display[1:], "adah"
    else:
        label, dot, tld = display.rpartition(".")
        if not dot:
            raise ParseError(f"display {display!r} has no TLD", field="display")
        namespace = "eth" if tld == "eth" else "ud:" + tld
    if not label:
        if not _valid_namespace(namespace):
            raise UnknownNamespace(f"unknown namespace {namespace!r}")
        raise EmptyLabel(f"nothing left of {display!r} after stripping")
    # Name checks the namespace.
    return Name(_to_punycode(label), namespace)


def infer_namespace(display: str, source: str, line: int | None = None) -> str:
    """Work out the namespace of a fixture display form given its source; a UD
    display without a TLD is a ParseError at ``line``. ENS and ADA Handle sources
    imply their namespace; UD sources carry per-record TLDs."""
    if source == "ens":
        return "eth"
    if source == "adah":
        return "adah"
    if source not in SOURCES:
        raise UnknownNamespace(f"unknown source {source!r}")
    return "ud:" + _tld(display, line)


@dataclass(frozen=True)
class Registration:
    """A name bound to an owner wallet and resolution addresses."""

    name: Name
    owner: str
    resolution_addresses: dict[str, str]  # chain symbol -> address
    registered_at: datetime
    source: str

    def __post_init__(self):
        if not self.owner:
            raise InvalidField("owner must be non-empty", "owner")
        if self.source not in SOURCES:
            raise InvalidField(f"unknown source {self.source!r}", "source")


def is_subdomain(reg: Registration) -> bool:
    """Subdomains (e.g. funds.johndoe.eth) are stored but excluded from targeting."""
    return reg.name.namespace == "eth" and "." in reg.name.label


@dataclass
class Dataset:
    """Immutable in-memory index over a set of registrations.

    Duplicate displays resolve last-wins; the number of overwrites is kept in
    ``duplicate_warnings``.
    """

    registrations: list[Registration] = field(default_factory=list)
    by_display: dict[str, Registration] = field(default_factory=dict)
    by_resolution: dict[str, set[Name]] = field(default_factory=dict)
    by_owner: dict[str, set[Name]] = field(default_factory=dict)
    duplicate_warnings: int = 0

    def __len__(self) -> int:
        return len(self.registrations)

    @property
    def namespaces(self) -> set[str]:
        return {r.name.namespace for r in self.registrations}


def build_dataset(regs: Iterable[Registration]) -> Dataset:
    """Index registrations, resolving duplicate displays last-wins."""
    by_display: dict[str, Registration] = {}
    duplicates = 0
    for reg in regs:
        key = reg.name.display
        if key in by_display:
            duplicates += 1
            log.warning("duplicate display %s: keeping later record", key)
        by_display[key] = reg
    ds = Dataset(
        registrations=list(by_display.values()),
        by_display=by_display,
        duplicate_warnings=duplicates,
    )
    for reg in ds.registrations:
        for addr in reg.resolution_addresses.values():
            ds.by_resolution.setdefault(addr, set()).add(reg.name)
        ds.by_owner.setdefault(reg.owner, set()).add(reg.name)
    return ds


def require_fields(obj, fields: Iterable[str], line: int | None = None) -> None:
    """ParseError unless ``obj`` is a JSON object holding every one of ``fields``."""
    if not isinstance(obj, dict):
        raise ParseError(f"record must be an object, not {type(obj).__name__}", line=line)
    for f in fields:
        if f not in obj:
            raise ParseError("missing field", line=line, field=f)


def parse_registration_record(obj: dict, line: int | None = None) -> Registration:
    """Parse one fixture record (see the fixture schema in the README).

    A value that the record's Name or Registration rejects is a ParseError
    naming ``line`` and the field.
    """
    require_fields(obj, ("display", "owner", "registered_at", "source"), line)
    display, source, namespace = obj["display"], obj["source"], obj.get("namespace")
    if source not in SOURCES:
        raise ParseError(f"unknown source {source!r}", line=line, field="source")
    if not isinstance(display, str):
        raise ParseError(f"display must be a string: {display!r}", line=line, field="display")
    try:
        name = normalize_name(display, namespace or infer_namespace(display, source, line))
    except EmptyLabel as exc:
        raise ParseError(str(exc), line=line, field="display") from exc
    except UnknownNamespace as exc:
        raise ParseError(str(exc), line=line, field="namespace" if namespace else "display") from exc
    resolution = obj.get("resolution") or {}
    if not isinstance(resolution, dict):
        raise ParseError("resolution must be an object", line=line, field="resolution")
    for symbol in resolution:
        if symbol not in CHAIN_SYMBOLS:
            raise ParseError(f"unknown chain symbol {symbol!r}", line=line, field="resolution")
    try:
        registered_at = datetime.fromisoformat(obj["registered_at"].replace("Z", "+00:00"))
    except (ValueError, AttributeError) as exc:
        raise ParseError(str(exc), line=line, field="registered_at") from exc
    if registered_at.tzinfo is None:
        registered_at = registered_at.replace(tzinfo=timezone.utc)
    try:
        return Registration(
            name=name,
            owner=obj["owner"],
            resolution_addresses=dict(resolution),
            registered_at=registered_at,
            source=source,
        )
    except InvalidField as exc:
        raise ParseError(str(exc), line=line, field=exc.field) from exc


def load_registrations(records: Iterable[dict], lines: Iterable[int] | None = None) -> Dataset:
    """Build a Dataset from parsed fixture records. ``lines`` gives each record's
    line in its file for error messages; by default records are numbered from 1."""
    if lines is None:
        lines = itertools.count(1)
    return build_dataset(parse_registration_record(obj, line=n) for n, obj in zip(lines, records))


def iter_jsonl(lines: Iterable[str]) -> Iterator[tuple[int, object]]:
    """Yield (line number, JSON value) for each non-blank line of JSONL text,
    raising ParseError with the line number."""
    for i, raw in enumerate(lines, 1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            yield i, json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), line=i) from exc
