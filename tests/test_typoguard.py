from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from bnsquat import typoguard
from bnsquat.corpus import Name, parse_display
from bnsquat.errors import ParseError
from bnsquat.typo_models import TypoModel, alphabet_for_namespace, classify, generate_all, primary_model
from bnsquat.typoguard import (
    Decision,
    GuardHistory,
    NameIndex,
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
    verdict = check(hist("vitalik.eth"), set(), NameIndex(), Name("walrus", "eth"))
    assert verdict.decision is Decision.ALLOW
    assert verdict.reason is Reason.NONE


def test_known_good_precedence_over_everything():
    # the recipient itself is in history, even though it is also a blocklist
    # entry and a variant of a popular name
    recipient = Name("vitalikk", "eth")
    verdict = check(
        hist("vitalikk.eth"), {recipient}, NameIndex([Name("vitalik", "eth")]), recipient
    )
    assert verdict.decision is Decision.ALLOW
    assert verdict.reason is Reason.NONE


def test_blocklist_warns():
    recipient = Name("scammer", "eth")
    verdict = check(GuardHistory(), {recipient}, NameIndex(), recipient)
    assert (verdict.decision, verdict.reason) == (Decision.WARN, Reason.COLD_BLOCKLIST)


def test_cold_variant_of_popular():
    verdict = check(GuardHistory(), set(), NameIndex([Name("vitalik", "eth")]), Name("vitalikk", "eth"))
    assert (verdict.decision, verdict.reason) == (Decision.WARN, Reason.COLD_VARIANT_OF_POPULAR)
    assert verdict.matched_target == Name("vitalik", "eth")
    assert verdict.model is TypoModel.DUPLICATION


def test_cold_beats_warm():
    verdict = check(
        hist("vitalik.eth"), set(), NameIndex([Name("vitalik", "eth")]), Name("vitalikk", "eth")
    )
    assert verdict.reason is Reason.COLD_VARIANT_OF_POPULAR


def test_warm_variant_of_history():
    verdict = check(hist("vitalik.eth"), set(), NameIndex(), Name("vitalki", "eth"))
    assert (verdict.decision, verdict.reason) == (Decision.WARN, Reason.WARM_VARIANT_OF_HISTORY)
    assert verdict.matched_target == Name("vitalik", "eth")
    assert verdict.model is TypoModel.SWAPPING


def test_namespace_separation():
    # $vitalik in history must not flag vitalikk.eth
    verdict = check(hist("$vitalik"), set(), NameIndex(), Name("vitalikk", "eth"))
    assert verdict.decision is Decision.ALLOW


def test_warm_rule_keeps_an_ada_handle_ending_in_eth():
    # $john.eth is an ADA Handle; john.etx is one edit from it.
    verdict = check(hist("$john.eth"), set(), NameIndex(), Name("john.etx", "adah"))
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
    assert set(names) == {
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
    verdict = check(h, set(), NameIndex(), Name(variant, "eth"))
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
        assert check(h, set(), NameIndex(), Name(label, "eth")).decision is Decision.ALLOW


def test_history_timestamp_ending_in_z_is_utc():
    # Python 3.10's fromisoformat rejects the "Z" that 3.11 reads; both must load it.
    assert typoguard._timestamp("2021-01-01T00:00:00Z", 1, "first_used") == ts(2021)
    with pytest.raises(ParseError, match="line 1, field 'last_used'"):
        typoguard._timestamp("2021-13-01Z", 1, "last_used")


# --- the neighbour index against a full scan ---------------------------------


def test_cold_rule_reports_the_display_smallest_match():
    # "-" sorts before ".", so ab-c.eth comes first by display though ab < ab-c.
    verdict = check(GuardHistory(), set(), NameIndex([Name("ab", "eth"), Name("ab-c", "eth")]), Name("abc", "eth"))
    assert verdict.matched_target == Name("ab-c", "eth")
    assert verdict.model is TypoModel.REMOVAL


def test_warm_rule_reports_the_earliest_matching_entry():
    verdict = check(hist("vitalik.eth", "vitalic.eth"), set(), NameIndex(), Name("vitalie", "eth"))
    assert verdict.matched_target == Name("vitalik", "eth")
    verdict = check(hist("vitalic.eth", "vitalik.eth"), set(), NameIndex(), Name("vitalie", "eth"))
    assert verdict.matched_target == Name("vitalic", "eth")


@pytest.mark.parametrize(
    "target, recipient",
    # Each swap takes the middle character and the one before it, so only the
    # suffix after the middle stays in place.
    [("abcdef", "abdcef"), ("abcde", "acbde"), ("abc", "bac"), ("ab", "ba")],
)
def test_swap_across_the_split_point_is_found(target, recipient):
    verdict = check(GuardHistory(), set(), NameIndex([Name(target, "eth")]), Name(recipient, "eth"))
    assert (verdict.reason, verdict.model) == (Reason.COLD_VARIANT_OF_POPULAR, TypoModel.SWAPPING)
    verdict = check(hist(f"{target}.eth"), set(), NameIndex(), Name(recipient, "eth"))
    assert (verdict.reason, verdict.model) == (Reason.WARM_VARIANT_OF_HISTORY, TypoModel.SWAPPING)


def reference_check(history: list[Name], blocklist: set[Name], popular: list[Name], recipient: Name) -> tuple:
    """The guard's rules as a full scan: every popular name in display order,
    then every history name in entry order, each tested with classify."""
    alphabet = alphabet_for_namespace(recipient.namespace)
    if recipient in history:
        return (Decision.ALLOW, Reason.NONE, None, None)
    if recipient in blocklist:
        return (Decision.WARN, Reason.COLD_BLOCKLIST, None, None)
    for reason, names in ((Reason.COLD_VARIANT_OF_POPULAR, sorted(popular, key=lambda n: n.display)),
                          (Reason.WARM_VARIANT_OF_HISTORY, history)):
        for cand in names:
            models = classify(recipient.label, cand.label, alphabet) if cand.namespace == recipient.namespace else None
            if models:
                return (Decision.WARN, reason, cand, primary_model(models))
    return (Decision.ALLOW, Reason.NONE, None, None)


GUARD_NAMESPACES = ("eth", "ud:crypto", "ud:nft", "adah")


def guard_alphabet(namespace: str) -> str:
    # Few letters make many names one edit apart; ADA labels may hold "." and "_".
    return "ab-._" if namespace == "adah" else "ab-"


@st.composite
def guard_names(draw):
    namespace = draw(st.sampled_from(GUARD_NAMESPACES))
    return Name(draw(st.text(alphabet=guard_alphabet(namespace), min_size=1, max_size=7)), namespace)


@given(
    st.lists(guard_names(), max_size=40),
    st.lists(guard_names(), max_size=12),
    st.lists(guard_names(), max_size=4),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_check_matches_a_full_scan(popular, base, blocklist, data):
    history = GuardHistory.load(
        {"display": n.display, "first_used": "2021-01-01T00:00:00+00:00",
         "last_used": "2021-01-01T00:00:00+00:00", "send_count": 1}
        for n in base
    )
    entries = list(dict.fromkeys(base))
    index = NameIndex(popular)
    for _ in range(data.draw(st.integers(1, 12))):
        # Half the recipients are one-typo variants of a listed or recorded name.
        listed = popular + entries
        if listed and data.draw(st.booleans()):
            target = data.draw(st.sampled_from(listed))
            labels = sorted(v.variant_label for v in generate_all(target, guard_alphabet(target.namespace)))
            recipient = Name(data.draw(st.sampled_from(labels)), target.namespace) if labels else target
        else:
            recipient = data.draw(guard_names())
        verdict = check(history, set(blocklist), index, recipient)
        got = (verdict.decision, verdict.reason, verdict.matched_target, verdict.model)
        assert got == reference_check(entries, set(blocklist), popular, recipient)
        if verdict.decision is Decision.ALLOW:
            record_send(history, recipient)
            if recipient not in entries:
                entries.append(recipient)
