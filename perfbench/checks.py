"""Checks of the pipeline's artifacts against the planted truth and the oracle.

Each function returns a list of error messages; an empty list means the
artifact is correct. None of them compares against a saved copy of an earlier
output.
"""

from __future__ import annotations

import csv
import json
import statistics
from collections import defaultdict
from pathlib import Path

import oracle
from fixtures import Planted, label_of

USD_CENTS = 0.01  # common_senders.csv prints USD with two decimals
ROUNDED_9 = 0.5e-9  # ingest rounds each expanded UTXO amount to 9 decimals


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def check_targets(out: Path, planted: Planted) -> list[str]:
    got = {t["display"] for t in json.loads((out / "score" / "targets.json").read_text())}
    errors = []
    if got - planted.targets:
        errors.append(f"targets: unexpected {sorted(got - planted.targets)[:5]}")
    if planted.targets - got:
        errors.append(f"targets: missing {sorted(planted.targets - got)[:5]}")
    return errors


def check_clusters(out: Path, planted: Planted) -> list[str]:
    errors = []
    got: dict[str, dict] = {}
    for obj in _jsonl(out / "detect" / "clusters.jsonl"):
        target = obj["target"]
        t_label = label_of(target, obj["namespace"])
        alphabet = oracle.alphabet_for(obj["namespace"])
        squats = {}
        for s in obj["squats"]:
            squats[s["display"]] = (s["model"], s["owner"])
            s_label = label_of(s["display"], planted.namespace_of.get(s["display"], obj["namespace"]))
            if oracle.osa(s_label, t_label) != 1:
                errors.append(f"clusters: {s['display']} is not one edit from {target}")
            expected_model = oracle.top_model(s_label, t_label, alphabet)
            if s["model"] != expected_model:
                errors.append(f"clusters: {s['display']} reported as {s['model']}, oracle says {expected_model}")
        got[target] = {"squats": squats, "defensive": set(obj["defensive"])}
    for target, want in planted.clusters.items():
        have = got.get(target)
        if have is None:
            errors.append(f"clusters: no cluster for {target}")
            continue
        for missing in want["squats"].keys() - have["squats"].keys():
            kind = "cross-TLD squat" if (target, missing) in planted.cross_tld else "squat"
            errors.append(f"clusters: {kind} {missing} of {target} missing")
        for extra in have["squats"].keys() - want["squats"].keys():
            errors.append(f"clusters: unexpected squat {extra} of {target}")
        for display, model_owner in want["squats"].items():
            if display in have["squats"] and have["squats"][display] != model_owner:
                errors.append(f"clusters: {display} has {have['squats'][display]}, planted {model_owner}")
        if have["defensive"] != want["defensive"]:
            errors.append(f"clusters: defensive of {target} {sorted(have['defensive'])} != {sorted(want['defensive'])}")
    for target in got.keys() - planted.clusters.keys():
        errors.append(f"clusters: unexpected cluster for {target}")
    reported = set(got) | {d for c in got.values() for d in c["squats"]} | {
        d for c in got.values() for d in c["defensive"]
    }
    for display in sorted(reported & planted.absent):
        errors.append(f"clusters: {display} must not appear (pre-dated, labelled wallet or subdomain)")
    return errors


def _common_rows(out: Path) -> list[dict]:
    with open(out / "tx" / "common_senders.csv") as fh:
        return list(csv.DictReader(fh))


def check_common_senders(out: Path, planted: Planted) -> list[str]:
    errors = []
    got = {}
    for row in _common_rows(out):
        key = (row["sender"], row["sender_class"], row["target"], row["typo"])
        if key in got:
            errors.append(f"common senders: duplicate row {key}")
        got[key] = row
        if row["sender"] in planted.excluded_senders:
            errors.append(f"common senders: other-custodial sender {row['sender']} reported")
    for key in planted.common.keys() - got.keys():
        errors.append(f"common senders: missing {key}")
    for key in got.keys() - planted.common.keys():
        errors.append(f"common senders: unexpected {key}")
    for key in planted.common.keys() & got.keys():
        want, row = planted.common[key], got[key]
        if (int(row["n_legit_txs"]), int(row["n_typo_txs"])) != (want["n_legit"], want["n_typo"]):
            errors.append(f"common senders: {key} counts {row['n_legit_txs']}/{row['n_typo_txs']}")
        usd = sum(want["usd_values"])
        if not row["usd_to_typo"] or abs(float(row["usd_to_typo"]) - usd) > USD_CENTS:
            errors.append(f"common senders: {key} usd_to_typo {row['usd_to_typo']} != {usd:.2f}")
    return errors


def check_funds(out: Path, planted: Planted) -> list[str]:
    summary = json.loads((out / "tx" / "funds_summary.json").read_text())
    values = planted.typo_usd_values
    want = {"mean_usd": statistics.fmean(values), "median_usd": statistics.median(values)}
    return [
        f"funds_summary: {key} {summary.get(key)} != {value:.6f}"
        for key, value in want.items()
        if summary.get(key) is None or abs(summary[key] - value) > 1e-6 + 1e-9 * value
    ]


def check_utxo_conservation(out: Path, planted: Planted) -> list[str]:
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    for obj in _jsonl(out / "ingested" / "transactions.jsonl"):
        if obj.get("origin") == "utxo_expanded":
            count[obj["hash"]] += 1
            total[obj["hash"]] += obj["amount"]
    errors = []
    if sum(count.values()) != sum(k for k, _ in planted.utxo_inputs.values()):
        errors.append(
            f"utxo: {sum(count.values())} expanded transactions, inputs sum to "
            f"{sum(k for k, _ in planted.utxo_inputs.values())}"
        )
    for h, (k, amount) in planted.utxo_inputs.items():
        if count.get(h) != k:
            errors.append(f"utxo: {h} expanded into {count.get(h)} transactions, has {k} inputs")
        elif abs(total[h] - amount) > k * ROUNDED_9 + 1e-9 * amount:
            errors.append(f"utxo: {h} expanded amounts sum to {total[h]!r}, output is {amount!r}")
    return errors


def check_report(out: Path, planted: Planted) -> list[str]:
    summary = json.loads((out / "report" / "summary.json").read_text())
    want = {
        "n_clusters": len(planted.clusters),
        "n_squats": sum(len(c["squats"]) for c in planted.clusters.values()),
        "n_defensive": sum(len(c["defensive"]) for c in planted.clusters.values()),
    }
    return [f"report: {k} {summary.get(k)} != {v}" for k, v in want.items() if summary.get(k) != v]


def check_pipeline(out: Path, planted: Planted) -> list[str]:
    errors = (
        check_targets(out, planted)
        + check_clusters(out, planted)
        + check_common_senders(out, planted)
        + check_funds(out, planted)
        + check_report(out, planted)
    )
    if planted.utxo_inputs:
        errors += check_utxo_conservation(out, planted)
    return errors
