from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bnsquat.corpus import (
    Name,
    build_dataset,
    infer_namespace,
    iter_jsonl,
    load_registrations,
    normalize_name,
    parse_display,
)
from bnsquat.errors import EmptyLabel, ParseError, UnknownNamespace

from conftest import reg, ts


def test_normalize_lowercase_fold():
    name = normalize_name("JohnDoe.eth", "eth")
    assert name.label == "johndoe"
    assert name.display == "johndoe.eth"


def test_normalize_adah_keeps_punycode_label():
    assert normalize_name("$xn--bs8h", "adah").label == "xn--bs8h"


def test_normalize_emoji_to_punycode():
    # Oracle: the stdlib punycode codec on the single code point.
    expected = "xn--" + "🎯".encode("punycode").decode("ascii")
    assert normalize_name("$🎯", "adah").label == expected


def test_normalize_ud_tld_stripping():
    name = normalize_name("CryptoDen.blockchain", "ud:blockchain")
    assert name.label == "cryptoden"
    assert name.display == "cryptoden.blockchain"


def test_normalize_errors():
    with pytest.raises(EmptyLabel):
        normalize_name("$", "adah")
    with pytest.raises(UnknownNamespace):
        normalize_name("foo", "btc")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-éñ🎯ABC", min_size=1, max_size=20))
def test_normalize_idempotent(raw):
    try:
        first = normalize_name(raw, "adah")
    except EmptyLabel:
        return
    assert normalize_name(first.label, "adah").label == first.label


@pytest.mark.parametrize(
    "display, expected",
    [
        ("vitalik.eth", Name("vitalik", "eth")),
        ("$handle", Name("handle", "adah")),
        ("wallet.crypto", Name("wallet", "ud:crypto")),
        (" VITALIK.ETH ", Name("vitalik", "eth")),
        ("Wallet.NFT", Name("wallet", "ud:nft")),
        # "$" wins over the suffix: ADA Handles may hold ".", ENS labels no "$".
        ("$john.eth", Name("john.eth", "adah")),
        ("funds.johndoe.eth", Name("funds.johndoe", "eth")),
    ],
)
def test_parse_display(display, expected):
    assert parse_display(display) == expected


@pytest.mark.parametrize(
    "display, error",
    [("johndoe", ParseError), ("", ParseError), (".eth", EmptyLabel), ("$", EmptyLabel), ("john.", UnknownNamespace)],
)
def test_parse_display_rejects(display, error):
    with pytest.raises(error) as exc:
        parse_display(display)
    if error is ParseError:
        assert exc.value.field == "display"


def test_infer_namespace():
    assert infer_namespace("foo.eth", "ens") == "eth"
    assert infer_namespace("$foo", "adah") == "adah"
    assert infer_namespace("foo.crypto", "ud-eth") == "ud:crypto"


def test_empty_dataset():
    ds = load_registrations([])
    assert len(ds) == 0
    assert not ds.by_display and not ds.by_resolution and not ds.by_owner


def test_duplicate_display_last_wins():
    ds = build_dataset(
        [
            reg("johndoe.eth", "0xfirst", registered=ts(2020)),
            reg("johndoe.eth", "0xsecond", registered=ts(2021)),
        ]
    )
    assert len(ds) == 1
    assert ds.duplicate_warnings == 1
    assert ds.by_display["johndoe.eth"].owner == "0xsecond"


def test_by_resolution_groups_aliases():
    ds = build_dataset(
        [
            reg("one12.eth", "0xa", {"ETH": "0xshared"}),
            reg("two12.eth", "0xb", {"ETH": "0xshared"}),
            reg("three.eth", "0xc", {"ETH": "0xother"}),
        ]
    )
    # Oracle: recount by linear scan.
    expected = sum(1 for r in ds.registrations if r.resolution_addresses.get("ETH") == "0xshared")
    assert len(ds.by_resolution["0xshared"]) == expected == 2


def test_display_round_trip(small_dataset):
    for r in small_dataset.registrations:
        assert small_dataset.by_display[r.name.display] is r


def test_owner_index_consistency(small_dataset):
    total = sum(len(names) for names in small_dataset.by_owner.values())
    assert total == len(small_dataset)


def test_load_from_fixture_records():
    records = [
        {
            "display": "JohnDoe.eth",
            "owner": "0xabc",
            "resolution": {"ETH": "0xdef"},
            "registered_at": "2020-01-01T00:00:00Z",
            "source": "ens",
        }
    ]
    ds = load_registrations(records)
    assert "johndoe.eth" in ds.by_display


def test_parse_error_carries_line_number():
    records = [
        {"display": "a.eth", "owner": "0x1", "registered_at": "2020-01-01T00:00:00Z", "source": "ens"},
        {"display": "b.eth", "owner": "0x2", "source": "ens"},
    ]
    with pytest.raises(ParseError) as err:
        load_registrations(records)
    assert err.value.line == 2
    assert err.value.field == "registered_at"


def test_ud_record_displayed_like_an_ens_name_is_a_parse_error():
    """A UD TLD of eth would give the ENS name's display, so ud:eth is no namespace."""
    johndoe = {"display": "johndoe.eth", "owner": "0x1", "registered_at": "2020-01-01T00:00:00Z"}
    with pytest.raises(ParseError) as err:
        load_registrations([dict(johndoe, source="ens"), dict(johndoe, source="ud-eth")])
    assert (err.value.line, err.value.field) == (2, "display")
    with pytest.raises(ParseError) as err:
        load_registrations([dict(johndoe, source="ud-eth", namespace="ud:eth")])
    assert (err.value.line, err.value.field) == (1, "namespace")
    with pytest.raises(UnknownNamespace):
        Name("johndoe", "ud:eth")


def test_iter_jsonl_reports_bad_line():
    with pytest.raises(ParseError) as err:
        list(iter_jsonl(['{"ok": 1}', "not json"]))
    assert err.value.line == 2


def test_name_invariants():
    with pytest.raises(EmptyLabel):
        Name("", "eth")
    with pytest.raises(UnknownNamespace):
        Name("foo", "nope")
