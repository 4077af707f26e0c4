"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with -s,
and mirrored by the verbose test id) and enforces its tolerance and time limit.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from datetime import timedelta
from pathlib import Path

from bnsquat.cli import main as cli_main
from bnsquat.corpus import Name, build_dataset, load_registrations
from bnsquat.ground_truth import AddressLabelSet, WalletStats, rank_wallets
from bnsquat.similarity import SimilarityBucket, bucket_for
from bnsquat.simulator import ScenarioParams, synth_corpus, synth_transactions
from bnsquat.squat_detector import detect
from bnsquat.tx_analysis import (
    TxStore,
    UtxoRecord,
    classify_sender,
    common_senders,
    parse_transaction_record,
    utxo_expand,
)
from bnsquat.typo_models import (
    TypoModel,
    classify,
    damerau_distance,
    generate,
    generate_all,
)
from bnsquat.typoguard import Decision, GuardHistory, NameIndex, Reason, check, record_send

from conftest import funds_of, reg, ts

ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def rand_label(rng: random.Random, lo: int = 5, hi: int = 20) -> str:
    return "".join(rng.choice(ALNUM) for _ in range(rng.randint(lo, hi)))


def is_distance_one(a: str, b: str) -> bool:
    """Exact one-edit check (substitution, adjacent swap, insert, delete)."""
    la, lb = len(a), len(b)
    if a == b or abs(la - lb) > 1:
        return False
    if la == lb:
        i = 0
        while a[i] == b[i]:
            i += 1
        j = la - 1
        while a[j] == b[j]:
            j -= 1
        if i == j:
            return True
        return j == i + 1 and a[i] == b[j] and a[j] == b[i]
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def test_criterion_01_table_fidelity():
    name = Name("johndoe", "eth")
    exemplars = {
        TypoModel.DUPLICATION: "jjohndoe",
        TypoModel.ADDITION: "johndoew",
        TypoModel.REMOVAL: "johndo",
        TypoModel.SWAPPING: "johnode",
        TypoModel.SUBSTITUTION: "nohndoe",
        TypoModel.HYPHENATION: "john-doe",
        TypoModel.PLURALIZATION: "johndoes",
    }
    for model in TypoModel:
        generate(name, model)  # warm up before timing
    best = float("inf")
    ok = True
    for _ in range(5):
        start = time.perf_counter()
        for model, exemplar in exemplars.items():
            ok = ok and exemplar in {v.variant_label for v in generate(name, model)}
        best = min(best, time.perf_counter() - start)
    report(1, "table fidelity", ok and best < 0.001, f"{best * 1000:.3f} ms")


def one_edit_neighborhood(label: str, alphabet: str) -> set[str]:
    """All strings exactly one edit (OSA) away from label over the alphabet.

    Every member differs from label, so each is at distance exactly 1; any
    distance-1 string over the alphabet arises from one of these four edits.
    """
    out: set[str] = set()
    n = len(label)
    for i in range(n + 1):
        pre, suf = label[:i], label[i:]
        for c in alphabet:
            out.add(pre + c + suf)  # insertion
        if i < n:
            out.add(pre + suf[1:])  # deletion
            for c in alphabet:
                out.add(pre + c + suf[1:])  # substitution
            if i < n - 1 and label[i] != label[i + 1]:
                out.add(pre + suf[1] + suf[0] + suf[2:])  # transposition
    out.discard(label)
    return out


def test_criterion_02_distance_one_soundness():
    from bnsquat.typo_models import ETH_ALPHABET

    rng = random.Random(202)
    start = time.perf_counter()
    violations = 0
    checked = 0
    sample: list[tuple[str, str]] = []
    for k in range(10_000):
        label = rand_label(rng)
        variants = {v.variant_label for v in generate_all(Name(label, "eth"))}
        checked += len(variants)
        neighborhood = one_edit_neighborhood(label, ETH_ALPHABET)
        violations += len(variants - neighborhood) + (label in variants)
        if k % 100 == 0 and variants:
            sample.extend((v, label) for v in rng.sample(sorted(variants), 5))
    # Tie the set oracle back to the reference distance on a random sample,
    # including negatives at distance 0 and 2.
    for a, b in sample:
        assert damerau_distance(a, b) == 1 and is_distance_one(a, b)
    for _ in range(2_000):
        a, b = rand_label(rng, 5, 10), rand_label(rng, 5, 10)
        assert (damerau_distance(a, b) == 1) == is_distance_one(a, b)
    elapsed = time.perf_counter() - start
    report(
        2,
        "distance-1 soundness",
        violations == 0 and elapsed < 30,
        f"{checked} variants, {violations} violations, {elapsed:.1f} s",
    )


def test_criterion_03_generate_classify_duality():
    rng = random.Random(303)
    start = time.perf_counter()
    violations = 0
    for _ in range(1_000):
        label = rand_label(rng)
        name = Name(label, "eth")
        for model in TypoModel:
            for variant in generate(name, model):
                if model not in classify(variant.variant_label, label):
                    violations += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        "generate/classify duality",
        violations == 0 and elapsed < 30,
        f"{violations} violations, {elapsed:.1f} s",
    )


def test_criterion_04_detection_vs_oracle():
    params = ScenarioParams(n_legit=10_000, n_decoys=200, seed=42)
    start = time.perf_counter()
    records, manifest = synth_corpus(params)
    dataset = load_registrations(records)
    targets = [Name(d.removesuffix(".eth"), "eth") for d in manifest.targets]
    clusters = detect(targets, dataset)
    got = {
        c.target.name.display: (
            {e.registration.name.display for e in c.squats},
            {r.name.display for r in c.defensive},
        )
        for c in clusters
    }

    # Brute-force all-pairs oracle with the same date/owner/target filters.
    target_displays = {t.display for t in targets}
    oracle: dict[str, tuple[set[str], set[str]]] = {}
    for target in targets:
        target_reg = dataset.by_display[target.display]
        squats: set[str] = set()
        defensive: set[str] = set()
        for candidate in dataset.registrations:
            if candidate.name.display in target_displays:
                continue
            if not classify(candidate.name.label, target.label):
                continue
            if candidate.registered_at < target_reg.registered_at:
                continue
            (defensive if candidate.owner == target_reg.owner else squats).add(
                candidate.name.display
            )
        if squats or defensive:
            oracle[target.display] = (squats, defensive)

    manifest_truth = {
        c["target"]: ({s["display"] for s in c["squats"]}, set(c["defensive"]))
        for c in manifest.clusters
    }
    elapsed = time.perf_counter() - start
    # recall and precision 1.0 against the manifest means exact set equality
    report(
        4,
        "detection vs oracle",
        got == oracle == manifest_truth and elapsed < 60,
        f"{len(dataset)} names, {len(got)} clusters, {elapsed:.1f} s",
    )


def test_criterion_05_date_filter():
    ds = build_dataset(
        [
            reg("walrus.eth", "0xowner", registered=ts(2020, 6, 1)),
            reg("walruss.eth", "0xearly", registered=ts(2019, 1, 1)),  # pre-dates target
            reg("wwalrus.eth", "0xlate", registered=ts(2021, 1, 1)),
        ]
    )
    clusters = detect([Name("walrus", "eth")], ds)
    reported = {e.registration.name.display for c in clusters for e in c.squats}
    report(
        5,
        "date filter",
        "walruss.eth" not in reported and reported == {"wwalrus.eth"},
        f"reported={sorted(reported)}",
    )


def test_criterion_06_defensive_partition():
    ds = build_dataset(
        [
            reg("walrus.eth", "0xowner", registered=ts(2020)),
            reg("walruss.eth", "0xowner", registered=ts(2020, 2, 1)),  # same owner
            reg("wallrus.eth", "0xsquat", registered=ts(2020, 3, 1)),
        ]
    )
    [cluster] = detect([Name("walrus", "eth")], ds)
    squats = {e.registration.name.display for e in cluster.squats}
    defensive = {r.name.display for r in cluster.defensive}
    report(
        6,
        "defensive partition",
        defensive == {"walruss.eth"} and squats == {"wallrus.eth"},
        f"defensive={sorted(defensive)}",
    )


def test_criterion_07_ranking_properties():
    rng = random.Random(707)
    start = time.perf_counter()
    ok = True
    for _ in range(1_000):
        stats = [
            WalletStats(f"0x{i:04x}", rng.randint(0, 10_000), rng.randint(1, 50))
            for i in range(rng.randint(1, 30))
        ]
        factor = rng.randint(2, 1000)
        scaled = [WalletStats(s.address, s.w_t * factor, s.w_d) for s in stats]
        if [s.address for s in rank_wallets(stats)] != [
            s.address for s in rank_wallets(scaled)
        ]:
            ok = False
        s = rng.choice(stats)
        if s.w_t > 0 and not (
            WalletStats(s.address, s.w_t, s.w_d + rng.randint(1, 50)).score < s.score
        ):
            ok = False
    elapsed = time.perf_counter() - start
    report(7, "ranking properties", ok and elapsed < 10, f"{elapsed:.1f} s")


def test_criterion_08_utxo_conservation():
    rng = random.Random(808)
    start = time.perf_counter()
    worst = 0.0
    for i in range(10_000):
        n_inputs = rng.randint(1, 30)
        amount = rng.uniform(0, 1e9)
        record = UtxoRecord(
            f"0x{i:08x}",
            tuple(f"addr{j}" for j in range(n_inputs)),
            "out",
            amount,
            ts(2021),
        )
        total = sum(t.amount for t in utxo_expand(record))
        if amount:
            worst = max(worst, abs(total - amount) / amount)
    elapsed = time.perf_counter() - start
    report(
        8,
        "utxo conservation",
        worst <= 1e-9 and elapsed < 5,
        f"worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_09_common_sender_recovery():
    start = time.perf_counter()
    ok = True
    details = []
    for k in (0, 1, 10, 100):
        params = ScenarioParams(
            n_legit=300, n_decoys=20, tx_per_legit=(3, 6), n_typo_events=k, seed=900 + k
        )
        records, manifest = synth_corpus(params)
        txs, _, _ = synth_transactions(records, manifest, params)
        dataset = load_registrations(records)
        store = TxStore(parse_transaction_record(t) for t in txs)
        labels = AddressLabelSet.from_records(manifest.labels)
        clusters = detect(
            [Name(d.removesuffix(".eth"), "eth") for d in manifest.targets], dataset
        )
        found = [r for c in clusters for r in common_senders(c, store, labels)]

        # Nested-loop oracle: per pair, intersect full scans of the tx list.
        oracle = set()
        for cluster in clusters:
            legit_addr = cluster.target.resolution_addresses["ETH"]
            for entry in cluster.squats:
                typo_addr = entry.registration.resolution_addresses["ETH"]
                legit_senders = {t.sender for t in store.transactions if t.receiver == legit_addr}
                typo_senders = {t.sender for t in store.transactions if t.receiver == typo_addr}
                for sender in legit_senders & typo_senders:
                    if classify_sender(sender, labels) != "other_custodial":
                        oracle.add((sender, cluster.target.name.display,
                                    entry.registration.name.display))

        got = {(r.sender, r.target_name.display, r.typo_name.display) for r in found}
        planted = {(e["sender"], e["target"], e["typo"]) for e in manifest.events}
        classes_ok = all(
            r.sender_class
            == next(
                e["sender_class"] for e in manifest.events if e["sender"] == r.sender
            )
            for r in found
        )
        this_ok = len(found) == k and got == oracle == planted and classes_ok
        ok = ok and this_ok
        details.append(f"K={k}:{len(found)}")
    elapsed = time.perf_counter() - start
    report(9, "common-sender recovery", ok and elapsed < 60,
           f"{' '.join(details)}, {elapsed:.1f} s")


def test_criterion_10_usd_statistics_and_buckets():
    rng = random.Random(1010)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1_000):
        values = [rng.uniform(0, 1e6) for _ in range(rng.randint(1, 200))]
        mean, median = funds_of(values)
        ordered = sorted(values)
        oracle_mean = sum(ordered) / len(ordered)
        n = len(ordered)
        oracle_median = (
            ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2
        )
        worst = max(
            worst,
            abs(mean - oracle_mean) / max(oracle_mean, 1e-12),
            abs(median - oracle_median) / max(oracle_median, 1e-12),
        )
    buckets_ok = (
        bucket_for(0.4999999) is SimilarityBucket.NOT_SIMILAR
        and bucket_for(0.5) is SimilarityBucket.MODERATE
        and bucket_for(0.7499999) is SimilarityBucket.MODERATE
        and bucket_for(0.75) is SimilarityBucket.HIGHLY_SIMILAR
    )
    elapsed = time.perf_counter() - start
    report(
        10,
        "usd statistics and buckets",
        worst <= 1e-9 and buckets_ok,
        f"worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_11_guard_behavior():
    rng = random.Random(1111)
    ok = True
    for _ in range(1_000):
        labels = list({rand_label(rng, 5, 12) for _ in range(rng.randint(1, 5))})
        history = GuardHistory()
        for i, label in enumerate(labels):
            record_send(history, Name(label, "eth"), at=ts(2021) + timedelta(days=i))
        target = rng.choice(labels)
        variants = sorted(
            v.variant_label for v in generate_all(Name(target, "eth"))
        )
        variant = rng.choice(variants)
        verdict = check(history, set(), NameIndex(), Name(variant, "eth"))
        if variant in labels:
            # known-good precedence: a history name is allowed even when it is
            # a variant of another history name (or blocklisted/popular-adjacent)
            strict = check(
                history,
                {Name(variant, "eth")},
                NameIndex([Name(target, "eth")]),
                Name(variant, "eth"),
            )
            if verdict.decision is not Decision.ALLOW or strict.decision is not Decision.ALLOW:
                ok = False
        elif not (
            verdict.decision is Decision.WARN
            and verdict.reason is Reason.WARM_VARIANT_OF_HISTORY
        ):
            ok = False

    # latency at history size 1,000: recipient is a variant of the last entry.
    # The warm rule probes an index of the history instead of scanning it; the
    # first check builds that index, and the best of 20 leaves the build out.
    # On a shared 2-vCPU VM the best check took 0.013-0.02 ms and the first,
    # with the build, 2.2-2.8 ms: margins of at least 500x and 3x under 10 ms.
    big = GuardHistory()
    rng2 = random.Random(42)
    last = None
    while len(big.entries) < 1000:
        last = rand_label(rng2, 8, 12)
        record_send(big, Name(last, "eth"), at=ts(2021))
    big.names()  # parse the history outside the timed region
    recipient = Name(last + "s", "eth")
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        verdict = check(big, set(), NameIndex(), recipient)
        best = min(best, time.perf_counter() - t0)
    latency_ok = best <= 0.010 and verdict.decision is Decision.WARN
    report(11, "guard behavior", ok and latency_ok, f"check {best * 1000:.2f} ms")


def test_criterion_12_pipeline_determinism():
    def run(out: Path) -> None:
        scenario = out / "scenario.json"
        out.mkdir(parents=True, exist_ok=True)
        scenario.write_text(json.dumps({"n_legit": 150, "n_decoys": 20, "seed": 12}))
        base = ["--out", str(out), "--fixed-clock"]
        assert cli_main(["simulate", *base, "--scenario", str(scenario)]) == 0
        assert cli_main(["ingest", *base, "--data-dir", str(out / "fixtures")]) == 0
        assert cli_main(["score", *base, "--top-n", "150"]) == 0
        assert cli_main(["detect", *base]) == 0
        assert cli_main(["analyze-tx", *base]) == 0
        assert cli_main(["report", *base]) == 0

    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        run(a)
        run(b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        identical = files_a == files_b and all(
            (a / rel).read_bytes() == (b / rel).read_bytes() for rel in files_a
        )
    report(12, "pipeline determinism", identical, f"{len(files_a)} artifacts compared")
