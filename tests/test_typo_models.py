from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bnsquat.corpus import Name
from bnsquat.typo_models import (
    ADAH_ALPHABET,
    ETH_ALPHABET,
    TypoModel,
    change_position,
    classify,
    damerau_distance,
    generate,
    generate_all,
    primary_model,
)

LABELS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=5, max_size=20)


# --- independent oracles ----------------------------------------------------


def brute_variants(label: str, model: TypoModel, alphabet: str = ETH_ALPHABET) -> set[str]:
    """Straight-line enumeration of each model's rule, kept separate from the
    implementation under test."""
    out: set[str] = set()
    if model is TypoModel.DUPLICATION:
        out = {label[:i] + label[i] + label[i:] for i in range(len(label))}
    elif model is TypoModel.ADDITION:
        out = {label[:i] + c + label[i:] for i in range(len(label) + 1) for c in alphabet}
    elif model is TypoModel.REMOVAL:
        out = {label[:i] + label[i + 1 :] for i in range(len(label))}
    elif model is TypoModel.SWAPPING:
        out = {
            label[:i] + label[i + 1] + label[i] + label[i + 2 :] for i in range(len(label) - 1)
        }
    elif model is TypoModel.SUBSTITUTION:
        out = {label[:i] + c + label[i + 1 :] for i in range(len(label)) for c in alphabet}
    elif model is TypoModel.HYPHENATION:
        out = {label[:i] + "-" + label[i:] for i in range(1, len(label))}
    elif model is TypoModel.PLURALIZATION:
        out = {label + "s"} if not label.endswith("s") else set()
    out.discard(label)
    return {v for v in out if v and not v.startswith("-") and not v.endswith("-")}


def brute_positions(label: str, model: TypoModel, alphabet: str = ETH_ALPHABET) -> dict[str, int]:
    """Variant -> smallest position that produces it, by a plain ascending scan."""
    first: dict[str, int] = {}
    for variant in brute_variants(label, model, alphabet):
        for pos in range(len(label) + 1):
            if model is TypoModel.DUPLICATION:
                made = pos < len(label) and label[:pos] + label[pos] + label[pos:] == variant
            elif model is TypoModel.ADDITION:
                made = any(label[:pos] + c + label[pos:] == variant for c in alphabet)
            elif model is TypoModel.REMOVAL:
                made = label[:pos] + label[pos + 1 :] == variant
            elif model is TypoModel.SWAPPING:
                made = (
                    pos < len(label) - 1
                    and label[:pos] + label[pos + 1] + label[pos] + label[pos + 2 :] == variant
                )
            elif model is TypoModel.SUBSTITUTION:
                made = any(label[:pos] + c + label[pos + 1 :] == variant for c in alphabet)
            elif model is TypoModel.HYPHENATION:
                made = pos >= 1 and label[:pos] + "-" + label[pos:] == variant
            else:
                made = pos == len(label) and label + "s" == variant
            if made:
                first[variant] = pos
                break
    return first


def brute_all(label: str, alphabet: str = ETH_ALPHABET) -> set[str]:
    out: set[str] = set()
    for model in TypoModel:
        out |= brute_variants(label, model, alphabet)
    return out


def recursive_osa(a: str, b: str, memo=None) -> int:
    """Plain recursive optimal-string-alignment distance."""
    if memo is None:
        memo = {}
    key = (a, b)
    if key in memo:
        return memo[key]
    if not a:
        return len(b)
    if not b:
        return len(a)
    best = min(
        recursive_osa(a[:-1], b, memo) + 1,
        recursive_osa(a, b[:-1], memo) + 1,
        recursive_osa(a[:-1], b[:-1], memo) + (a[-1] != b[-1]),
    )
    if len(a) > 1 and len(b) > 1 and a[-1] == b[-2] and a[-2] == b[-1]:
        best = min(best, recursive_osa(a[:-2], b[:-2], memo) + 1)
    memo[key] = best
    return best


def labels_of(variants) -> set[str]:
    return {v.variant_label for v in variants}


# --- table exemplars --------------------------------------------------------


JOHNDOE = Name("johndoe", "eth")

TABLE_EXEMPLARS = [
    (TypoModel.DUPLICATION, "jjohndoe"),
    (TypoModel.ADDITION, "johndoew"),
    (TypoModel.REMOVAL, "johndo"),
    (TypoModel.SWAPPING, "johnode"),
    (TypoModel.SUBSTITUTION, "nohndoe"),
    (TypoModel.HYPHENATION, "john-doe"),
    (TypoModel.PLURALIZATION, "johndoes"),
]


@pytest.mark.parametrize("model,exemplar", TABLE_EXEMPLARS)
def test_johndoe_exemplars(model, exemplar):
    assert exemplar in labels_of(generate(JOHNDOE, model))


def test_pluralization_is_exactly_one():
    assert labels_of(generate(JOHNDOE, TypoModel.PLURALIZATION)) == {"johndoes"}


def test_removal_abcde():
    assert labels_of(generate(Name("abcde", "eth"), TypoModel.REMOVAL)) == {
        "bcde",
        "acde",
        "abde",
        "abce",
        "abcd",
    }


def test_swapping_vitalik():
    assert "vitalki" in labels_of(generate(Name("vitalik", "eth"), TypoModel.SWAPPING))


@pytest.mark.parametrize("model", list(TypoModel))
def test_generate_matches_brute_enumeration(model):
    for label in ("johndoe", "abcde", "aa", "mississippi", "a2z", "a", "a-b", "-ab"):
        assert labels_of(generate(Name(label, "eth"), model)) == brute_variants(label, model)


@pytest.mark.parametrize("model", list(TypoModel))
def test_change_position_is_first_producing_position(model):
    for label in ("aa", "aaa", "mississippi", "abba", "a-b", "-ab", "a"):
        got = {v.variant_label: v.change_position for v in generate(Name(label, "eth"), model)}
        assert got == brute_positions(label, model)


@pytest.mark.parametrize(
    "label,model,variant,pos",
    [
        ("aa", TypoModel.ADDITION, "aaa", 0),
        ("mississippi", TypoModel.DUPLICATION, "misssissippi", 2),
    ],
)
def test_change_position_repeated_characters(label, model, variant, pos):
    assert brute_positions(label, model)[variant] == pos
    by_label = {v.variant_label: v for v in generate(Name(label, "eth"), model)}
    assert by_label[variant].change_position == pos


def test_generate_all_count_matches_enumerator():
    assert labels_of(generate_all(JOHNDOE)) == brute_all("johndoe")


def test_generate_all_priority_duplication_over_addition():
    by_label = {v.variant_label: v for v in generate_all(Name("vitalik", "eth"))}
    assert by_label["vitalikk"].model is TypoModel.DUPLICATION


def test_two_char_label_edge_cases():
    variants = labels_of(generate_all(Name("aa", "eth")))
    assert "aa" not in variants
    assert not any(v.startswith("-") or v.endswith("-") for v in variants)
    assert labels_of(generate(Name("a", "eth"), TypoModel.HYPHENATION)) == set()
    assert generate(Name("a", "eth"), TypoModel.REMOVAL) == set()


def test_classify_examples():
    assert classify("vitalki", "vitalik") == {TypoModel.SWAPPING}
    assert classify("vitalik", "vitalik") == set()
    assert classify("vitaliks", "vitalik") == {TypoModel.PLURALIZATION, TypoModel.ADDITION}
    assert classify("walrus", "vitalik") == set()


def test_primary_model_ordering():
    assert primary_model({TypoModel.ADDITION, TypoModel.DUPLICATION}) is TypoModel.DUPLICATION
    assert primary_model(set()) is None


def test_damerau_examples():
    assert damerau_distance("vitalik", "vitalik") == 0
    assert damerau_distance("vitalik", "vitalki") == 1
    assert damerau_distance("abc", "") == 3
    assert damerau_distance("", "xy") == 2
    assert damerau_distance("kitten", "sitting") == 3


@given(st.text(alphabet="abcde", max_size=8), st.text(alphabet="abcde", max_size=8))
@settings(max_examples=200)
def test_damerau_matches_recursive_oracle(a, b):
    assert damerau_distance(a, b) == recursive_osa(a, b)


@given(LABELS)
@settings(max_examples=100, deadline=None)
def test_distance_one_soundness(label):
    target = Name(label, "eth")
    for variant in generate_all(target):
        assert damerau_distance(variant.variant_label, label) == 1


@given(LABELS, st.sampled_from(list(TypoModel)))
@settings(max_examples=150)
def test_generate_classify_duality(label, model):
    target = Name(label, "eth")
    all_labels = labels_of(generate_all(target))
    for variant in generate(target, model):
        models = classify(variant.variant_label, label)
        assert model in models
        assert variant.variant_label in all_labels


@given(LABELS, LABELS)
@settings(max_examples=100)
def test_classify_nonempty_implies_generated(candidate, label):
    if classify(candidate, label):
        assert candidate in labels_of(generate_all(Name(label, "eth")))


@given(LABELS)
@settings(max_examples=50)
def test_no_self_hits_and_determinism(label):
    target = Name(label, "eth")
    first = generate_all(target)
    assert label not in labels_of(first)
    assert first == generate_all(target)


def test_adah_alphabet_extends_eth():
    variants = labels_of(generate(Name("handle", "adah"), TypoModel.ADDITION, ADAH_ALPHABET))
    assert "handle_" in variants
    assert "handle." in variants


def test_change_position_histogram_matches_recount():
    # detect takes each squat's change position from change_position, so the
    # histogram over all variants must match the one generate_all reports.
    variants = generate_all(Name("abcdef", "eth"))
    reported = Counter(v.change_position for v in variants)
    recount = Counter(change_position(v.variant_label, "abcdef", v.model) for v in variants)
    assert recount == reported
    assert reported[0] > 0


@given(st.text(alphabet="abs-._", min_size=1, max_size=8), st.sampled_from(list(TypoModel)))
@settings(max_examples=200)
def test_change_position_is_the_one_generate_reports(label, model):
    for variant in generate(Name(label, "adah"), model, ADAH_ALPHABET):
        assert change_position(variant.variant_label, label, model, ADAH_ALPHABET) == variant.change_position
