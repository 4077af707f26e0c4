from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bnsquat.corpus import build_dataset
from bnsquat.errors import ParseError
from bnsquat.ground_truth import (
    AddressLabelSet,
    WalletStats,
    compute_wallet_stats,
    filter_labeled,
    rank_wallets,
    select_targets,
)

from conftest import reg, ts


def test_score_formula():
    assert WalletStats("0xa", w_t=10, w_d=2).score == 5.0
    assert WalletStats("0xb", w_t=0, w_d=3).score == 0.0


def test_compute_wallet_stats_counts_distinct_names():
    ds = build_dataset(
        [
            reg("alpha.eth", "0x1", {"ETH": "0xA"}),
            reg("bravo.eth", "0x2", {"ETH": "0xA"}),
            reg("delta.eth", "0x3", {"ETH": "0xB"}),
        ]
    )
    stats = {s.address: s for s in compute_wallet_stats(ds, {"0xA": 10})}
    assert stats["0xA"].w_d == 2 and stats["0xA"].w_t == 10
    assert stats["0xB"].w_d == 1 and stats["0xB"].w_t == 0  # missing means zero


def test_ranking_matches_sort_oracle():
    stats = [
        WalletStats("0xc", 30, 3),
        WalletStats("0xa", 100, 2),
        WalletStats("0xb", 10, 1),
    ]
    # Oracle: brute-force recomputation of the ordering by score.
    expected = sorted(stats, key=lambda s: s.w_t / s.w_d, reverse=True)
    assert rank_wallets(stats) == expected


def test_tie_break_is_w_t_then_address():
    stats = [
        WalletStats("0xz", 10, 2),  # score 5
        WalletStats("0xa", 10, 2),  # score 5, same w_t -> address asc
        WalletStats("0xm", 20, 4),  # score 5, higher w_t wins
    ]
    assert [s.address for s in rank_wallets(stats)] == ["0xm", "0xa", "0xz"]


def test_filter_labeled():
    labels = AddressLabelSet(
        exchange_addresses={"0xex", "0xcb"},
        token_contracts={"0xtok"},
        coinbase_addresses={"0xcb"},
    )
    stats = [WalletStats(a, 1, 1) for a in ("0xex", "0xcb", "0xtok", "0xok", "0xfine")]
    survivors = {s.address for s in filter_labeled(stats, labels)}
    # Oracle: plain set difference.
    assert survivors == {"0xok", "0xfine"}
    assert len(filter_labeled(stats, labels)) <= len(stats)


def test_empty_label_set_is_identity():
    stats = [WalletStats("0xa", 1, 1)]
    assert filter_labeled(stats, AddressLabelSet()) == stats


def test_label_set_invariants():
    with pytest.raises(ValueError):
        AddressLabelSet(exchange_addresses={"0xa"}, token_contracts={"0xa"})
    with pytest.raises(ValueError):
        AddressLabelSet(coinbase_addresses={"0xa"})


def test_label_set_from_records():
    labels = AddressLabelSet.from_records(
        [
            {"address": "0xcb", "kind": "exchange", "is_coinbase": True},
            {"address": "0xex", "kind": "exchange"},
            {"address": "0xtok", "kind": "token_contract"},
        ]
    )
    assert labels.coinbase_addresses == {"0xcb"}
    assert labels.exchange_addresses == {"0xcb", "0xex"}
    assert labels.token_contracts == {"0xtok"}


@pytest.mark.parametrize(
    "record, field",
    [
        (5, None),
        ({"kind": "exchange"}, "address"),
        ({"address": ["0xa"], "kind": "exchange"}, "address"),
        ({"address": "0xa", "kind": "mixer"}, "kind"),
        ({"address": "0xtok", "kind": "exchange"}, "kind"),
        ({"address": "0xcb", "kind": "token_contract"}, "kind"),
    ],
    ids=["not-an-object", "no-address", "address-not-a-string", "unknown-kind", "token-then-exchange",
         "exchange-then-token"],
)
def test_label_record_errors_name_the_file_line(record, field):
    """Records are numbered by the file lines given, as after blank lines; an
    address labelled both exchange and token_contract is an error in either order."""
    records = [
        {"address": "0xtok", "kind": "token_contract"},
        {"address": "0xcb", "kind": "exchange", "is_coinbase": True},
        record,
    ]
    with pytest.raises(ParseError) as err:
        AddressLabelSet.from_records(records, [1, 2, 5])
    assert (err.value.line, err.value.field) == (5, field)


def _target_dataset():
    return build_dataset(
        [
            reg("abc.eth", "0x1", {"ETH": "0xW1"}),
            reg("abcde.eth", "0x1", {"ETH": "0xW1"}),
            reg("longname.eth", "0x2", {"ETH": "0xW2"}),
            reg("another.eth", "0x3", {"ETH": "0xW3"}),
        ]
    )


def test_min_label_len_excludes_short_names():
    ds = _target_dataset()
    stats = compute_wallet_stats(ds, {"0xW1": 100, "0xW2": 10, "0xW3": 1})
    targets = select_targets(stats, ds, top_n=3, min_label_len=5)
    displays = [t.display for t in targets]
    assert "abc.eth" not in displays
    assert "abcde.eth" in displays


def test_wallet_contributes_all_its_names():
    ds = _target_dataset()
    stats = compute_wallet_stats(ds, {"0xW1": 100})
    targets = select_targets(stats, ds, top_n=1, min_label_len=1)
    assert sorted(t.display for t in targets) == ["abc.eth", "abcde.eth"]


def test_fewer_wallets_than_top_n_warns_and_returns_all(caplog):
    ds = _target_dataset()
    stats = compute_wallet_stats(ds, {"0xW1": 5})
    with caplog.at_level("WARNING"):
        targets = select_targets(stats, ds, top_n=100, min_label_len=1)
    assert len(targets) == 4
    assert any("top_n" in rec.message for rec in caplog.records)


wallet_stats_lists = st.lists(
    st.builds(
        WalletStats,
        address=st.text(alphabet="0123456789abcdef", min_size=4, max_size=8).map(lambda s: "0x" + s),
        w_t=st.integers(min_value=0, max_value=10_000),
        w_d=st.integers(min_value=1, max_value=50),
    ),
    min_size=1,
    max_size=30,
    unique_by=lambda s: s.address,
)


@given(wallet_stats_lists, st.integers(min_value=2, max_value=1000))
@settings(max_examples=200)
def test_ranking_scale_invariance(stats, factor):
    scaled = [WalletStats(s.address, s.w_t * factor, s.w_d) for s in stats]
    assert [s.address for s in rank_wallets(stats)] == [s.address for s in rank_wallets(scaled)]


@given(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
)
def test_penalty_monotonicity(w_t, w_d, extra):
    assert WalletStats("0xa", w_t, w_d + extra).score < WalletStats("0xa", w_t, w_d).score
