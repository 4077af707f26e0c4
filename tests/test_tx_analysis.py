from __future__ import annotations

import statistics
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from bnsquat.corpus import Name, build_dataset
from bnsquat.errors import MissingRate, ParseError
from bnsquat.ground_truth import AddressLabelSet
from bnsquat.squat_detector import detect
from bnsquat.tx_analysis import (
    PriceTable,
    Transaction,
    TxStore,
    UtxoRecord,
    all_senders_counts,
    classify_sender,
    common_senders,
    funds_summary,
    parse_transaction_record,
    parse_utxo_record,
    to_usd,
    tx_count_index,
    utxo_expand,
)

from conftest import funds_of, reg, ts


def tx(sender, receiver, amount=1.0, asset="ETH", when=None, hash="0xtx"):
    return Transaction(hash, sender, receiver, amount, asset, when or ts(2021))


LABELS = AddressLabelSet(
    exchange_addresses={"0xcoinbase", "0xbinance"},
    coinbase_addresses={"0xcoinbase"},
)


# --- UTXO expansion ---------------------------------------------------------


def test_utxo_expand_shares_amount():
    record = UtxoRecord("0xh", ("a", "b", "c", "d"), "out", 10.0, ts(2021))
    txs = utxo_expand(record)
    assert len(txs) == 4
    assert all(t.amount == 2.5 and t.asset == "ADA" and t.origin == "utxo_expanded" for t in txs)
    assert {t.sender for t in txs} == {"a", "b", "c", "d"}


@given(
    st.lists(st.text(alphabet="ab12", min_size=1, max_size=6), min_size=1, max_size=20),
    st.floats(min_value=0, max_value=1e9, allow_nan=False),
)
@settings(max_examples=200)
def test_utxo_conservation(inputs, amount):
    record = UtxoRecord("0xh", tuple(inputs), "out", amount, ts(2021))
    total = sum(t.amount for t in utxo_expand(record))
    assert total == pytest.approx(amount, rel=1e-9, abs=1e-12)


def test_utxo_requires_inputs():
    with pytest.raises(ValueError):
        UtxoRecord("0xh", (), "out", 1.0, ts(2021))


@pytest.mark.parametrize(
    "change, field",
    [({"inputs": []}, "inputs"), ({"inputs": "addr_a"}, "inputs"), ({"amount": -2}, "amount"), ({"amount": None}, "amount")],
)
def test_parse_utxo_record_rejection_names_line_and_field(change, field):
    record = {"hash": "h", "inputs": ["addr_a"], "output": "o", "amount": 1, "timestamp": "2021-01-01T00:00:00Z"}
    with pytest.raises(ParseError) as err:
        parse_utxo_record(dict(record, **change), line=4)
    assert (err.value.line, err.value.field) == (4, field)


# --- store and sender classes -----------------------------------------------


def test_tx_count_index_counts_both_directions():
    assert tx_count_index([tx("a", "b"), tx("b", "c"), tx("a", "c"), tx("c", "c")]) == {"a": 2, "b": 2, "c": 4}


def test_classify_sender():
    assert classify_sender("0xcoinbase", LABELS) == "coinbase_custodial"
    assert classify_sender("0xbinance", LABELS) == "other_custodial"
    assert classify_sender("0xanyone", LABELS) == "non_custodial"


# --- prices -----------------------------------------------------------------


def test_price_table_lookup_and_missing():
    table = PriceTable.from_csv(
        ["date,asset,usd_close", "2021-01-01,ETH,1000.0", "2021-01-01,ADA,0.25"]
    )
    assert table.rate(date(2021, 1, 1), "ETH") == 1000.0
    with pytest.raises(MissingRate):
        table.rate(date(2021, 1, 2), "ETH")


@pytest.mark.parametrize(
    "row, field",
    [
        ("2021-13-01,ETH,100.0", "date"),
        ("2021-01-01,,100.0", "asset"),
        ("2021-01-01,ETH,lots", "usd_close"),
        ("2021-01-01,ETH,0", "usd_close"),
        ("2021-01-01,ETH,-2.5", "usd_close"),
        ("2021-01-01,ETH,nan", "usd_close"),
    ],
)
def test_price_csv_bad_row_names_line_and_field(row, field):
    with pytest.raises(ParseError) as err:
        PriceTable.from_csv(["date,asset,usd_close", "2021-01-01,ADA,0.25", row])
    assert (err.value.line, err.value.field) == (3, field)


def test_to_usd_uses_tx_day():
    table = PriceTable({(date(2021, 1, 1), "ETH"): 2000.0})
    assert to_usd(tx("a", "b", amount=0.5, when=ts(2021, 1, 1, 23)), table) == 1000.0


# --- common senders ---------------------------------------------------------


def _cluster_and_store():
    ds = build_dataset(
        [
            reg("target.eth", "0xowner", {"ETH": "0xlegit"}, ts(2020)),
            reg("ttarget.eth", "0xsq", {"ETH": "0xtypo"}, ts(2021)),
        ]
    )
    cluster = detect([Name("target", "eth")], ds)[0]
    store = TxStore(
        [
            tx("0xvictim", "0xlegit", amount=1.0, when=ts(2021, 3, 1), hash="l1"),
            tx("0xvictim", "0xtypo", amount=0.5, when=ts(2021, 3, 11), hash="t1"),
            tx("0xcoinbase", "0xlegit", when=ts(2021, 4, 1), hash="l2"),
            tx("0xcoinbase", "0xtypo", when=ts(2021, 4, 2), hash="t2"),
            tx("0xbinance", "0xlegit", when=ts(2021, 5, 1), hash="l3"),
            tx("0xbinance", "0xtypo", when=ts(2021, 5, 2), hash="t3"),
            tx("0xonlylegit", "0xlegit", hash="l4"),
            tx("0xonlytypo", "0xtypo", hash="t4"),
        ]
    )
    return cluster, store


def nested_loop_common_senders(store: TxStore, legit_addr, typo_addr):
    """Oracle: O(n^2) scan over all transaction pairs."""
    found = set()
    for a in store.transactions:
        for b in store.transactions:
            if a.receiver == legit_addr and b.receiver == typo_addr and a.sender == b.sender:
                found.add(a.sender)
    return found


def test_common_senders_match_nested_loop_oracle():
    cluster, store = _cluster_and_store()
    records = common_senders(cluster, store, LABELS)
    oracle = nested_loop_common_senders(store, "0xlegit", "0xtypo") - {"0xbinance"}
    assert {r.sender for r in records} == oracle == {"0xvictim", "0xcoinbase"}


def test_common_sender_classes_and_delta():
    cluster, store = _cluster_and_store()
    records = {r.sender: r for r in common_senders(cluster, store, LABELS)}
    assert records["0xvictim"].sender_class == "non_custodial"
    assert records["0xcoinbase"].sender_class == "coinbase_custodial"
    # first typo tx on 3/11, nearest legit on 3/1: positive ten day delta
    assert records["0xvictim"].delta_days == pytest.approx(10.0)
    assert records["0xvictim"].usd_to_typo is None


def test_common_sender_usd_with_prices():
    cluster, store = _cluster_and_store()
    table = PriceTable(
        {
            (date(2021, 3, 11), "ETH"): 1800.0,
            (date(2021, 4, 2), "ETH"): 2000.0,
        }
    )
    records = {r.sender: r for r in common_senders(cluster, store, LABELS, table)}
    assert records["0xvictim"].usd_to_typo == pytest.approx(0.5 * 1800.0)


def test_no_shared_chain_skips_pair(caplog):
    ds = build_dataset(
        [
            reg("target.eth", "0xowner", {"ETH": "0xlegit"}, ts(2020)),
            reg("ttarget.eth", "0xsq", {"MATIC": "0xtypo"}, ts(2021)),
        ]
    )
    cluster = detect([Name("target", "eth")], ds)[0]
    with caplog.at_level("WARNING"):
        records = common_senders(cluster, TxStore(), LABELS)
    assert records == []
    assert any("shared" in rec.message for rec in caplog.records)


def test_nearest_legit_pairing():
    ds = build_dataset(
        [
            reg("target.eth", "0xo", {"ETH": "0xlegit"}, ts(2020)),
            reg("ttarget.eth", "0xs", {"ETH": "0xtypo"}, ts(2020, 6, 1)),
        ]
    )
    cluster = detect([Name("target", "eth")], ds)[0]
    store = TxStore(
        [
            tx("0xv", "0xlegit", when=ts(2021, 1, 1), hash="a"),
            tx("0xv", "0xlegit", when=ts(2021, 3, 1), hash="b"),
            tx("0xv", "0xtypo", when=ts(2021, 2, 25), hash="c"),  # nearest is 3/1
            tx("0xv", "0xtypo", when=ts(2021, 8, 1), hash="d"),  # later, ignored
        ]
    )
    [record] = common_senders(cluster, store, LABELS)
    assert record.delta_days == pytest.approx(-4.0)  # typo tx before nearest legit


# --- funds and counts -------------------------------------------------------


def test_funds_summary_matches_sort_oracle():
    cluster, store = _cluster_and_store()
    table = PriceTable(
        {
            (date(2021, 3, 11), "ETH"): 1800.0,
            (date(2021, 4, 2), "ETH"): 2000.0,
        }
    )
    records = common_senders(cluster, store, LABELS, table)
    summary = funds_summary(records, table)
    values = sorted(to_usd(t, table) for r in records for t in r.typo_txs)
    assert summary.mean_usd == pytest.approx(sum(values) / len(values))
    mid = values[len(values) // 2] if len(values) % 2 else sum(values[len(values) // 2 - 1 : len(values) // 2 + 1]) / 2
    assert summary.median_usd == pytest.approx(mid)


def test_funds_summary_empty():
    summary = funds_summary([], PriceTable())
    assert (summary.mean_usd, summary.median_usd) == (0.0, 0.0)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=200)
def test_funds_values_match_statistics_oracle(values):
    mean, median = funds_of(values)
    assert mean == pytest.approx(statistics.mean(values), rel=1e-9, abs=1e-12)
    assert median == statistics.median(values)


def test_all_senders_counts():
    cluster, store = _cluster_and_store()
    counts = all_senders_counts(cluster, store)
    assert counts["ttarget.eth"] == {"unique_senders": 4, "transactions": 4}


def test_parse_transaction_record():
    record = parse_transaction_record(
        {
            "hash": "0xh",
            "sender": "a",
            "receiver": "b",
            "amount": "1.5",
            "asset": "ETH",
            "timestamp": "2021-01-01T00:00:00Z",
        }
    )
    assert record.amount == 1.5
    assert record.timestamp == ts(2021)
