from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from bnsquat import typoguard
from bnsquat.corpus import Name, parse_display
from bnsquat.errors import ParseError
from bnsquat.typo_models import TypoModel, generate_all
from bnsquat.typoguard import (
    Decision,
    GuardHistory,
    Reason,
    check,
    load_name_list,
    record_send,
)

from conftest import ts


def hist(*displays):
    h = GuardHistory()
    for i, d in enumerate(displays):
        record_send(h, parse_display(d), at=ts(2021, 1, 1 + i))
    return h


def test_allow_unrelated_name():
    verdict = check(hist("vitalik.eth"), set(), set(), Name("walrus", "eth"))
    assert verdict.decision is Decision.ALLOW
    assert verdict.reason is Reason.NONE


def test_known_good_precedence_over_everything():
    # the recipient itself is in history, even though it is also a blocklist
    # entry and a variant of a popular name
    recipient = Name("vitalikk", "eth")
    verdict = check(
        hist("vitalikk.eth"), {recipient}, {Name("vitalik", "eth")}, recipient
    )
    assert verdict.decision is Decision.ALLOW
    assert verdict.reason is Reason.NONE


def test_blocklist_warns():
    recipient = Name("scammer", "eth")
    verdict = check(GuardHistory(), {recipient}, set(), recipient)
    assert (verdict.decision, verdict.reason) == (Decision.WARN, Reason.COLD_BLOCKLIST)


def test_cold_variant_of_popular():
    verdict = check(GuardHistory(), set(), {Name("vitalik", "eth")}, Name("vitalikk", "eth"))
    assert (verdict.decision, verdict.reason) == (Decision.WARN, Reason.COLD_VARIANT_OF_POPULAR)
    assert verdict.matched_target == Name("vitalik", "eth")
    assert verdict.model is TypoModel.DUPLICATION


def test_cold_beats_warm():
    verdict = check(
        hist("vitalik.eth"), set(), {Name("vitalik", "eth")}, Name("vitalikk", "eth")
    )
    assert verdict.reason is Reason.COLD_VARIANT_OF_POPULAR


def test_warm_variant_of_history():
    verdict = check(hist("vitalik.eth"), set(), set(), Name("vitalki", "eth"))
    assert (verdict.decision, verdict.reason) == (Decision.WARN, Reason.WARM_VARIANT_OF_HISTORY)
    assert verdict.matched_target == Name("vitalik", "eth")
    assert verdict.model is TypoModel.SWAPPING


def test_namespace_separation():
    # $vitalik in history must not flag vitalikk.eth
    verdict = check(hist("$vitalik"), set(), set(), Name("vitalikk", "eth"))
    assert verdict.decision is Decision.ALLOW


def test_warm_rule_keeps_an_ada_handle_ending_in_eth():
    # $john.eth is an ADA Handle; john.etx is one edit from it.
    verdict = check(hist("$john.eth"), set(), set(), Name("john.etx", "adah"))
    assert (verdict.decision, verdict.reason) == (Decision.WARN, Reason.WARM_VARIANT_OF_HISTORY)
    assert verdict.matched_target == Name("john.eth", "adah")


def test_loaded_history_parses_each_display_as_its_namespace():
    h = GuardHistory.load(
        {"display": d, "first_used": "2021-01-01T00:00:00+00:00",
         "last_used": "2021-01-01T00:00:00+00:00", "send_count": 1}
        for d in ("vitalik.eth", "$john.eth", "wallet.crypto")
    )
    assert h.names() == [Name("vitalik", "eth"), Name("john.eth", "adah"), Name("wallet", "ud:crypto")]


def test_record_send_after_names_adds_the_name_without_parsing(monkeypatch):
    h = hist("vitalik.eth")
    assert h.names() == [Name("vitalik", "eth")]
    calls = []
    monkeypatch.setattr(typoguard, "parse_display", lambda d: calls.append(d))
    record_send(h, Name("walrus", "ud:crypto"), at=ts(2022))
    record_send(h, Name("vitalik", "eth"), at=ts(2022))
    assert h.names() == [Name("vitalik", "eth"), Name("walrus", "ud:crypto")]
    assert calls == []


def test_record_send_updates_counts():
    h = hist("vitalik.eth")
    record_send(h, Name("vitalik", "eth"), at=ts(2022))
    entry = h.entries["vitalik.eth"]
    assert entry.send_count == 2
    assert entry.first_used == ts(2021)
    assert entry.last_used == ts(2022)


def test_history_round_trip():
    h = hist("vitalik.eth", "$handle")
    record_send(h, Name("vitalik", "eth"), at=ts(2022))
    buf = io.StringIO()
    h.dump(buf)
    import json

    reloaded = GuardHistory.load(json.loads(line) for line in buf.getvalue().splitlines())
    assert reloaded.entries == h.entries


def test_load_name_list():
    names = load_name_list(
        [
            "# comment line",
            "vitalik.eth  # trailing comment",
            "$handle",
            "wallet.crypto",
            "VITALIK.ETH",
            "",
        ]
    )
    assert names == {
        Name("vitalik", "eth"),
        Name("handle", "adah"),
        Name("wallet", "ud:crypto"),
    }


def test_load_name_list_rejects_a_line_without_tld():
    with pytest.raises(ParseError):
        load_name_list(["vitalik.eth", "johndoe"])


LABELS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=5, max_size=12)


@given(st.lists(LABELS, min_size=1, max_size=5, unique=True), st.data())
@settings(max_examples=100, deadline=None)
def test_warm_completeness(labels, data):
    """Every generated variant of any history name warns, unless it is itself
    another history entry."""
    h = hist(*(f"{label}.eth" for label in labels))
    target_label = data.draw(st.sampled_from(labels))
    variants = generate_all(Name(target_label, "eth"))
    if not variants:
        return
    variant = data.draw(st.sampled_from(sorted(v.variant_label for v in variants)))
    verdict = check(h, set(), set(), Name(variant, "eth"))
    if variant in labels:
        assert verdict.decision is Decision.ALLOW
    else:
        assert verdict.decision is Decision.WARN
        assert verdict.reason is Reason.WARM_VARIANT_OF_HISTORY


@given(st.lists(LABELS, min_size=1, max_size=8, unique=True), LABELS)
@settings(max_examples=100, deadline=None)
def test_history_members_always_allowed(labels, extra):
    h = hist(*(f"{label}.eth" for label in labels))
    for label in labels:
        assert check(h, set(), set(), Name(label, "eth")).decision is Decision.ALLOW
