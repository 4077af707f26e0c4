"""Source abstractions for names, transactions, and prices.

Fixture-backed sources are the default and the only ones exercised by the test
suite; live adapters (subgraph/explorer clients) can implement the same
interfaces behind credentials supplied via environment variables.
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Protocol

from .errors import SourceExhaustedAbnormally
from .tx_analysis import PriceTable

log = logging.getLogger(__name__)

DEFAULT_PAGE_SIZE = 100
DEFAULT_FAILURE_CEILING = 0.01

# Fixture directory layout relative to the data dir.
REGISTRATIONS_DIR = "registrations"
TXS_DIR = "txs"
UTXOS_DIR = "utxos"
PRICES_FILE = "prices.csv"
LABELS_FILE = "labels.jsonl"


class PagedSource(Protocol):
    """Anything serving raw records a page at a time; cursors are opaque text."""

    def fetch_page(self, cursor: str | None) -> tuple[list[str], str | None]: ...


class FixtureSource:
    """Pages over the concatenated lines of one or more JSONL fixture files."""

    def __init__(self, paths: Iterable[Path], page_size: int = DEFAULT_PAGE_SIZE):
        self._paths = sorted(Path(p) for p in paths)
        self._page_size = page_size
        self._lines: list[str] | None = None

    @classmethod
    def from_dir(cls, directory: Path, page_size: int = DEFAULT_PAGE_SIZE) -> "FixtureSource":
        return cls(Path(directory).glob("*.jsonl"), page_size)

    def _load(self) -> list[str]:
        if self._lines is None:
            lines: list[str] = []
            for path in self._paths:
                with open(path) as fh:
                    lines.extend(line.rstrip("\n") for line in fh if line.strip())
            self._lines = lines
        return self._lines

    def fetch_page(self, cursor: str | None) -> tuple[list[str], str | None]:
        lines = self._load()
        start = int(cursor) if cursor else 0
        end = min(start + self._page_size, len(lines))
        next_cursor = str(end) if end < len(lines) else None
        return lines[start:end], next_cursor


@dataclass
class DrainCounts:
    fetched: int = 0
    parsed: int = 0
    failed: int = 0


def drain(
    source: PagedSource,
    sink: Callable[[dict], None],
    parse: Callable[[dict], dict] | None = None,
    failure_ceiling: float = DEFAULT_FAILURE_CEILING,
) -> DrainCounts:
    """Iterate pagination to exhaustion, pushing parsed records into the sink.

    Individual record failures are counted, not fatal, unless the overall
    failure rate exceeds the ceiling.
    """
    counts = DrainCounts()
    cursor: str | None = None
    while True:
        records, cursor = source.fetch_page(cursor)
        for raw in records:
            counts.fetched += 1
            try:
                obj = json.loads(raw)
                if parse is not None:
                    obj = parse(obj)
                sink(obj)
                counts.parsed += 1
            except Exception as exc:
                counts.failed += 1
                log.warning("record %d failed to parse: %s", counts.fetched, exc)
        if cursor is None:
            break
    if counts.fetched and counts.failed / counts.fetched > failure_ceiling:
        raise SourceExhaustedAbnormally(
            f"{counts.failed}/{counts.fetched} records failed (ceiling {failure_ceiling:.0%})"
        )
    return counts


class RateLimitedSource:
    """Wrapper enforcing a request budget over a sliding interval."""

    def __init__(self, source: PagedSource, budget: int, interval: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        if budget <= 0:
            raise ValueError("budget must be positive")
        self._source = source
        self._budget = budget
        self._interval = interval
        self._clock = clock
        self._sleep = sleep
        self._stamps: deque[float] = deque()

    def fetch_page(self, cursor: str | None) -> tuple[list[str], str | None]:
        now = self._clock()
        while self._stamps and now - self._stamps[0] >= self._interval:
            self._stamps.popleft()
        if len(self._stamps) >= self._budget:
            wait = self._interval - (now - self._stamps[0])
            if wait > 0:
                self._sleep(wait)
            now = self._clock()
            while self._stamps and now - self._stamps[0] >= self._interval:
                self._stamps.popleft()
        self._stamps.append(self._clock())
        return self._source.fetch_page(cursor)


class FixturePriceSource:
    """PriceSource over the fixture prices.csv."""

    def __init__(self, table: PriceTable):
        self._table = table

    @classmethod
    def from_path(cls, path: Path) -> "FixturePriceSource":
        with open(path) as fh:
            return cls(PriceTable.from_csv(fh))

    def rate(self, day: date, asset: str) -> float:
        return self._table.rate(day, asset)


def fixture_layout(data_dir: Path) -> dict[str, Path]:
    """Resolve the standard fixture paths under a data directory."""
    data_dir = Path(data_dir)
    return {
        "registrations": data_dir / REGISTRATIONS_DIR,
        "txs": data_dir / TXS_DIR,
        "utxos": data_dir / UTXOS_DIR,
        "prices": data_dir / PRICES_FILE,
        "labels": data_dir / LABELS_FILE,
    }
