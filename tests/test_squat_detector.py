from __future__ import annotations

from hypothesis import given, settings, strategies as st

from bnsquat.corpus import Dataset, Name, build_dataset
from bnsquat.similarity import SimilaritySummary, SimilarityBucket
from bnsquat.squat_detector import (
    CampaignStyle,
    classify_campaign,
    cross_namespace_fraction,
    detect,
    registration_stats,
    squatter_profiles,
    SquatterProfile,
    SquatCluster,
    SquatEntry,
)
from bnsquat.typo_models import ETH_ALPHABET, TypoModel, classify, generate_all

from conftest import reg, ts


def brute_force_clusters(targets, dataset: Dataset):
    """All-pairs check: test classify for every (corpus name, target) pair and
    apply the same date/ownership/target-exclusion filters as detect.

    detect confirms its candidates with classify too, so this is not an
    independent oracle; ``generate_and_probe`` below is."""
    target_displays = {t.display for t in targets}
    out = {}
    for target in targets:
        target_reg = dataset.by_display.get(target.display)
        if target_reg is None:
            continue
        squats, defensive = set(), set()
        for candidate in dataset.registrations:
            display = candidate.name.display
            if display in target_displays or candidate.name.namespace != target.namespace:
                continue
            if not classify(candidate.name.label, target.label, ETH_ALPHABET):
                continue
            if candidate.registered_at < target_reg.registered_at:
                continue
            (defensive if candidate.owner == target_reg.owner else squats).add(display)
        if squats or defensive:
            out[target.display] = (squats, defensive)
    return out


def as_display_map(clusters):
    return {
        c.target.name.display: (
            {e.registration.name.display for e in c.squats},
            {r.name.display for r in c.defensive},
        )
        for c in clusters
    }


def test_detect_basic(small_dataset):
    clusters = detect([Name("vitalik", "eth")], small_dataset)
    assert len(clusters) == 1
    squats = {e.registration.name.display for e in clusters[0].squats}
    assert squats == {"vitalikk.eth", "vitalki.eth"}
    models = {e.registration.name.display: e.model for e in clusters[0].squats}
    assert models["vitalikk.eth"] is TypoModel.DUPLICATION
    assert models["vitalki.eth"] is TypoModel.SWAPPING


def test_detect_date_filter():
    ds = build_dataset(
        [
            reg("target.eth", "0xowner", registered=ts(2020, 1, 1)),
            reg("targets.eth", "0xearly", registered=ts(2019, 6, 1)),
            reg("ttarget.eth", "0xlate", registered=ts(2020, 6, 1)),
        ]
    )
    clusters = detect([Name("target", "eth")], ds)
    squats = {e.registration.name.display for e in clusters[0].squats}
    assert squats == {"ttarget.eth"}


def test_detect_defensive_partition(small_dataset):
    clusters = detect([Name("mickey", "eth")], small_dataset)
    assert len(clusters) == 1
    assert [r.name.display for r in clusters[0].defensive] == ["mickeys.eth"]
    assert clusters[0].squats == []


def test_detect_excludes_targets(small_dataset):
    # vitalikk is itself in the target list; it must not appear as a squat.
    clusters = detect([Name("vitalik", "eth"), Name("vitalikk", "eth")], small_dataset)
    vit = next(c for c in clusters if c.target.name.display == "vitalik.eth")
    assert "vitalikk.eth" not in {e.registration.name.display for e in vit.squats}


def test_detect_matches_brute_force(small_dataset):
    targets = [Name("vitalik", "eth"), Name("mickey", "eth"), Name("unrelated", "eth")]
    assert as_display_map(detect(targets, small_dataset)) == brute_force_clusters(
        targets, small_dataset
    )


def test_shared_variant_lands_in_every_matching_cluster():
    # "abxcdef" is one edit from both targets; both clusters report it.
    ds = build_dataset(
        [
            reg("abcdef.eth", "0xa", registered=ts(2020)),
            reg("abxcdefg.eth", "0xb", registered=ts(2020)),
            reg("abxcdef.eth", "0xc", registered=ts(2021)),
        ]
    )
    targets = [Name("abcdef", "eth"), Name("abxcdefg", "eth")]
    clusters = as_display_map(detect(targets, ds))
    assert clusters == brute_force_clusters(targets, ds)
    assert all("abxcdef.eth" in squats for squats, _ in clusters.values())


def test_cross_tld_lookup():
    ds = build_dataset(
        [
            reg("wallet.crypto", "0xa", registered=ts(2020), namespace="ud:crypto", source="ud-eth"),
            reg("walet.nft", "0xb", registered=ts(2021), namespace="ud:nft", source="ud-polygon"),
        ]
    )
    target = [Name("wallet", "ud:crypto")]
    assert detect(target, ds) == []
    clusters = detect(target, ds, cross_tld=True)
    assert {e.registration.name.display for e in clusters[0].squats} == {"walet.nft"}


def generate_and_probe(targets, dataset: Dataset, cross_tld: bool = False):
    """The earlier detector, kept as the reference: every generate_all variant of
    each target, probed by display under every namespace the target is searched in."""
    target_displays = {t.display for t in targets}
    ud_namespaces = sorted(ns for ns in dataset.namespaces if ns.startswith("ud:")) if cross_tld else []
    clusters = []
    for target in targets:
        target_reg = dataset.by_display.get(target.display)
        if target_reg is None:
            continue
        cluster = SquatCluster(target=target_reg)
        namespaces = ud_namespaces if target.namespace.startswith("ud:") and cross_tld else [target.namespace]
        for variant in sorted(generate_all(target), key=lambda v: v.variant_label):
            for namespace in namespaces:
                display = Name(variant.variant_label, namespace).display
                if display in target_displays:
                    continue
                reg = dataset.by_display.get(display)
                if reg is None or reg.registered_at < target_reg.registered_at:
                    continue
                if reg.owner == target_reg.owner:
                    cluster.defensive.append(reg)
                else:
                    cluster.squats.append(SquatEntry(reg, variant.model, variant.change_position))
        if cluster.squats or cluster.defensive:
            clusters.append(cluster)
    return clusters


# No UD TLD is "eth": a UD name "x.eth" would share its display with the ENS name
# "x.eth", and the reference probes by display where detect matches by namespace.
PROPERTY_NAMESPACES = ("eth", "adah", "ud:crypto", "ud:nft", "ud:x")
SOURCE_OF = {"eth": "ens", "adah": "adah", "ud:crypto": "ud-eth", "ud:nft": "ud-polygon", "ud:x": "ud-polygon"}


def property_alphabet(namespace: str) -> str:
    # A few letters make many labels one edit apart; "." and "_" are ADA Handle characters.
    return "abs-._" if namespace == "adah" else "abs-"


@st.composite
def one_edit(draw, label: str, alphabet: str) -> str:
    """A label one edit from ``label``, spelled out here apart from typo_models."""
    i = draw(st.integers(0, len(label)))
    ch = draw(st.sampled_from(alphabet))
    edits = [label[:i] + ch + label[i:]]
    if i < len(label):
        edits += [label[:i] + label[i + 1 :], label[:i] + ch + label[i + 1 :], label[:i] + label[i] + label[i:]]
    if i + 1 < len(label):
        edits.append(label[:i] + label[i + 1] + label[i] + label[i + 2 :])
    edits.append(label + "s")
    return draw(st.sampled_from([e for e in edits if e]))


@st.composite
def squat_corpora(draw):
    """A corpus of base names and one- and two-edit relatives of them in several
    namespaces, with a few owners and dates, and targets drawn from it."""
    owners = ("0xa", "0xb", "0xc")
    records = {}

    def add(label: str, namespace: str) -> Name:
        name = Name(label, namespace)
        records[name] = reg(
            name.display, draw(st.sampled_from(owners)), registered=ts(draw(st.integers(2018, 2021))),
            namespace=namespace, source=SOURCE_OF[namespace],
        )
        return name

    bases = [
        add(draw(st.text(property_alphabet(ns), min_size=1, max_size=6)), ns)
        for ns in draw(st.lists(st.sampled_from(PROPERTY_NAMESPACES), min_size=1, max_size=5))
    ]
    for _ in range(draw(st.integers(0, 30))):
        base = draw(st.sampled_from(bases))
        alphabet = property_alphabet(base.namespace)
        label = draw(one_edit(base.label, alphabet))
        if draw(st.booleans()):
            label = draw(one_edit(label, alphabet))
        # A UD relative may be registered under several UD namespaces, which only cross_tld probes.
        if base.namespace.startswith("ud:"):
            namespaces = draw(st.lists(st.sampled_from(PROPERTY_NAMESPACES[2:]), min_size=1, max_size=3, unique=True))
        else:
            namespaces = [base.namespace]
        for ns in namespaces:
            bases.append(add(label, ns))
    names = list(records)
    # Targets may be variants of each other, and one may be absent from the corpus.
    targets = draw(st.lists(st.sampled_from(names), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        targets.append(Name("absent", "eth"))
    return build_dataset(records.values()), targets


@given(squat_corpora(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_detect_matches_generate_and_probe(corpus, cross_tld):
    dataset, targets = corpus
    assert detect(targets, dataset, cross_tld=cross_tld) == generate_and_probe(targets, dataset, cross_tld)


def test_registration_stats():
    ds = build_dataset(
        [
            reg("target.eth", "0xowner", registered=ts(2020, 1, 1)),
            reg("ttarget.eth", "0xa", registered=ts(2020, 4, 10)),  # delta 100 days, pos 0
            reg("targett.eth", "0xb", registered=ts(2021, 1, 1)),
        ]
    )
    stats = registration_stats(detect([Name("target", "eth")], ds))
    assert sorted(stats.delta_days) == [100.0, 366.0]
    assert stats.per_year == {2020: 1, 2021: 1}
    assert stats.typos_per_target == {2: 1}
    assert stats.first_char_fraction == 0.5
    assert sum(stats.model_histogram.values()) == 2


def test_min_delta_four_days():
    ds = build_dataset(
        [
            reg("vitalik.eth", "0xv", registered=ts(2017, 5, 4)),
            reg("vitalikb.eth", "0xs", registered=ts(2017, 5, 8)),
        ]
    )
    stats = registration_stats(detect([Name("vitalik", "eth")], ds))
    assert min(stats.delta_days) == 4.0


def test_squatter_profiles():
    ds = build_dataset(
        [
            reg("target.eth", "0xo1", registered=ts(2020)),
            reg("second.eth", "0xo2", registered=ts(2020)),
            reg("ttarget.eth", "0xsq", registered=ts(2021)),
            reg("targett.eth", "0xsq", registered=ts(2021)),
            reg("ssecond.eth", "0xsq", registered=ts(2021)),
            reg("other1.eth", "0xsq", registered=ts(2021)),
            reg("$other2", "0xsq", registered=ts(2021), namespace="adah", source="adah"),
        ]
    )
    clusters = detect([Name("target", "eth"), Name("second", "eth")], ds)
    profiles = squatter_profiles(clusters, ds)
    assert len(profiles) == 1
    p = profiles[0]
    assert p.wallet == "0xsq"
    assert p.unique_targets == 2
    assert p.typo_names == 3
    assert p.total_domains_owned == 5
    assert p.namespaces == {"eth", "adah"}
    assert cross_namespace_fraction(profiles) == 1.0


def _profile(typo_names, owned, unique_targets=1):
    return SquatterProfile(
        wallet="0xw",
        unique_targets=unique_targets,
        typo_names=typo_names,
        total_domains_owned=owned,
        namespaces={"eth"},
    )


def _summary(avg):
    return SimilaritySummary("0xw", avg, avg, SimilarityBucket.MODERATE)


def test_classify_campaign_single_typo():
    assert classify_campaign(_profile(1, 1), None) is CampaignStyle.SINGLE_TYPO


def test_classify_campaign_bands():
    assert classify_campaign(_profile(3, 10), _summary(0.9)) is CampaignStyle.MULTI_TARGET_SIMILAR
    assert classify_campaign(_profile(3, 10), _summary(0.2)) is CampaignStyle.MULTI_TARGET_DISSIMILAR
    assert classify_campaign(_profile(3, 10), _summary(0.6)) is CampaignStyle.UNCLASSIFIED
    assert classify_campaign(_profile(3, 10), None) is CampaignStyle.UNCLASSIFIED


def test_classify_campaign_hand_fixture():
    # Five wallets classified by hand against the 0.5/0.75 thresholds.
    cases = [
        (_profile(1, 1), None, CampaignStyle.SINGLE_TYPO),
        (_profile(2, 4), _summary(0.76), CampaignStyle.MULTI_TARGET_SIMILAR),
        (_profile(2, 4), _summary(0.75), CampaignStyle.MULTI_TARGET_SIMILAR),
        (_profile(2, 4), _summary(0.49), CampaignStyle.MULTI_TARGET_DISSIMILAR),
        (_profile(2, 4), _summary(0.5), CampaignStyle.UNCLASSIFIED),
    ]
    for profile, summary, expected in cases:
        assert classify_campaign(profile, summary) is expected
