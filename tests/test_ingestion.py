from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from bnsquat.cli import main
from bnsquat.errors import SourceExhaustedAbnormally
from bnsquat.ingestion import FixtureSource, drain


class ListSource:
    """In-memory paged source for tests."""

    def __init__(self, lines, page_size=3):
        self.lines = lines
        self.page_size = page_size
        self.calls = 0

    def fetch_page(self, cursor):
        self.calls += 1
        start = int(cursor) if cursor else 0
        end = min(start + self.page_size, len(self.lines))
        return self.lines[start:end], str(end) if end < len(self.lines) else None


def json_lines(n):
    return [json.dumps({"i": i}) for i in range(n)]


def test_drain_collects_everything_in_order():
    out = []
    counts = drain(ListSource(json_lines(10), page_size=3), out.append)
    assert [o["i"] for o in out] == list(range(10))
    assert (counts.fetched, counts.parsed, counts.failed) == (10, 10, 0)


def test_drain_empty_source():
    out = []
    counts = drain(ListSource([]), out.append)
    assert out == [] and counts.fetched == 0


def test_drain_tolerates_failures_below_ceiling():
    lines = json_lines(99) + ["not json"]
    out = []
    counts = drain(ListSource(lines), out.append)
    assert counts.failed == 1 and counts.parsed == 99
    assert len(out) == 99


def test_drain_raises_above_ceiling():
    lines = json_lines(98) + ["bad"] * 2
    with pytest.raises(SourceExhaustedAbnormally):
        drain(ListSource(lines), lambda _: None)


def test_drain_counts_sink_failures():
    def sink(obj):
        if obj["i"] == 37:
            raise ValueError("rejected")
        out.append(obj)

    out = []
    counts = drain(ListSource(json_lines(100)), sink)
    assert [o["i"] for o in out] == [i for i in range(100) if i != 37]
    assert (counts.fetched, counts.parsed, counts.failed) == (100, 99, 1)


def test_drain_raises_when_the_sink_rejects_more_than_one_percent():
    def sink(obj):
        if obj["i"] < 2:
            raise ValueError("rejected")

    with pytest.raises(SourceExhaustedAbnormally):
        drain(ListSource(json_lines(100)), sink)


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=17))
@settings(max_examples=100)
def test_pagination_soundness(n, page_size):
    """Every record is seen exactly once regardless of page size."""
    out = []
    drain(ListSource(json_lines(n), page_size=page_size), out.append)
    assert [o["i"] for o in out] == list(range(n))


def test_fixture_source_reads_sorted_files(tmp_path):
    (tmp_path / "b.jsonl").write_text("".join(json.dumps({"x": i}) + "\n" for i in range(150, 250)))
    (tmp_path / "a.jsonl").write_text("".join(json.dumps({"x": i}) + "\n\n" for i in range(150)))
    source = FixtureSource.from_dir(tmp_path)
    out = []
    counts = drain(source, out.append)
    assert [o["x"] for o in out] == list(range(250))
    assert counts.fetched == 250


def test_fixture_layout(tmp_path):
    """ingest reads registrations/, txs/ and utxos/ and copies prices.csv and labels.jsonl."""
    data = tmp_path / "data"
    for sub, record in (
        ("registrations", {"display": "abcde.eth", "owner": "0xo", "registered_at": "2021-01-01T00:00:00Z",
                           "source": "ens", "resolution": {"ETH": "0xr"}}),
        ("txs", {"hash": "0x1", "sender": "0xs", "receiver": "0xr", "amount": 1.0, "asset": "ETH",
                 "timestamp": "2021-02-01T00:00:00Z"}),
        ("utxos", {"hash": "0x2", "inputs": ["a1", "a2"], "output": "a3", "amount": 10.0,
                   "timestamp": "2021-03-01T00:00:00Z"}),
    ):
        (data / sub).mkdir(parents=True)
        (data / sub / "part.jsonl").write_text(json.dumps(record) + "\n")
    (data / "prices.csv").write_text("date,asset,usd_close\n2021-02-01,ETH,1000.0\n")
    (data / "labels.jsonl").write_text('{"address": "0xcb", "kind": "exchange"}\n')
    out = tmp_path / "out"
    assert main(["ingest", "--data-dir", str(data), "--out", str(out)]) == 0
    ingested = out / "ingested"
    assert len((ingested / "registrations.jsonl").read_text().splitlines()) == 1
    txs = [json.loads(line) for line in (ingested / "transactions.jsonl").read_text().splitlines()]
    assert [(t["hash"], t["sender"]) for t in txs] == [("0x1", "0xs"), ("0x2", "a1"), ("0x2", "a2")]
    assert (ingested / "prices.csv").read_text() == (data / "prices.csv").read_text()
    assert (ingested / "labels.jsonl").read_text() == (data / "labels.jsonl").read_text()
