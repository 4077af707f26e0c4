"""The fixture source and the drain loop that reads it.

A fixture source pages over the concatenated lines of a directory's JSONL files.
``drain`` reads every page and hands each decoded record to a sink, which
validates the record before keeping it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .errors import SourceExhaustedAbnormally

log = logging.getLogger(__name__)

DEFAULT_PAGE_SIZE = 100
DEFAULT_FAILURE_CEILING = 0.01

# Fixture directory layout relative to the data dir.
REGISTRATIONS_DIR = "registrations"
TXS_DIR = "txs"
UTXOS_DIR = "utxos"
PRICES_FILE = "prices.csv"
LABELS_FILE = "labels.jsonl"


class FixtureSource:
    """Pages over the concatenated lines of one or more JSONL fixture files."""

    def __init__(self, paths: Iterable[Path]):
        self._paths = sorted(Path(p) for p in paths)
        self._lines: list[str] | None = None

    @classmethod
    def from_dir(cls, directory: Path) -> "FixtureSource":
        return cls(Path(directory).glob("*.jsonl"))

    def _load(self) -> list[str]:
        if self._lines is None:
            lines: list[str] = []
            for path in self._paths:
                with open(path) as fh:
                    lines.extend(line.rstrip("\n") for line in fh if line.strip())
            self._lines = lines
        return self._lines

    def fetch_page(self, cursor: str | None) -> tuple[list[str], str | None]:
        """One page of raw lines and the cursor of the next page, None after the last."""
        lines = self._load()
        start = int(cursor) if cursor else 0
        end = min(start + DEFAULT_PAGE_SIZE, len(lines))
        next_cursor = str(end) if end < len(lines) else None
        return lines[start:end], next_cursor


@dataclass
class DrainCounts:
    fetched: int = 0
    parsed: int = 0
    failed: int = 0


def drain(source: FixtureSource, sink: Callable[[dict], None]) -> DrainCounts:
    """Iterate pagination to exhaustion, pushing each decoded record into the sink.

    A record that is not JSON, or that the sink rejects by raising, is counted
    and skipped; SourceExhaustedAbnormally if more than 1% of records fail.
    """
    counts = DrainCounts()
    cursor: str | None = None
    while True:
        records, cursor = source.fetch_page(cursor)
        for raw in records:
            counts.fetched += 1
            try:
                sink(json.loads(raw))
                counts.parsed += 1
            except Exception as exc:
                counts.failed += 1
                log.warning("record %d failed to parse: %s", counts.fetched, exc)
        if cursor is None:
            break
    if counts.fetched and counts.failed / counts.fetched > DEFAULT_FAILURE_CEILING:
        raise SourceExhaustedAbnormally(
            f"{counts.failed}/{counts.fetched} records failed (ceiling {DEFAULT_FAILURE_CEILING:.0%})"
        )
    return counts
