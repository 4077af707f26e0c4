"""Operator CLI: simulate -> ingest -> score -> detect -> analyze-tx -> report,
plus standalone guard checks.

Every stage writes its artifacts atomically (temp file + rename) under the
output directory, and later stages refuse to run before their prerequisites.
Exit codes: 0 ok, 2 config, 3 data, 4 missing prerequisite, 5 internal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

from . import corpus, ground_truth, ingestion, simulator, squat_detector, tx_analysis, typoguard
from .errors import BnsquatError, ConfigError, InsufficientNames, MissingPrerequisite, ParseError
from .similarity import TrigramProvider, wallet_similarity

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PREREQUISITE = 4
EXIT_INTERNAL = 5


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_jsonl(path: Path, records: list[dict]) -> None:
    _atomic_write(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _read_jsonl(path: Path) -> tuple[list[int], list]:
    """The file line of each record of a JSONL file, and the records."""
    with open(path) as fh:
        numbered = list(corpus.iter_jsonl(fh))
    return [line for line, _ in numbered], [obj for _, obj in numbered]


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise MissingPrerequisite(f"{path} missing; run the {stage} stage first")
    return path


# --- stages -----------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.scenario:
        params = simulator.ScenarioParams.from_json(Path(args.scenario).read_text())
    else:
        params = simulator.ScenarioParams()
    if args.seed is not None:
        params.seed = args.seed
    data_dir = Path(args.data_dir or Path(args.out) / "fixtures")
    records, manifest = simulator.synth_corpus(params)
    txs, utxos, prices = simulator.synth_transactions(records, manifest, params)
    _write_jsonl(data_dir / ingestion.REGISTRATIONS_DIR / "corpus.jsonl", records)
    _write_jsonl(data_dir / ingestion.TXS_DIR / "txs.jsonl", txs)
    _write_jsonl(data_dir / ingestion.UTXOS_DIR / "utxos.jsonl", utxos)
    _atomic_write(data_dir / ingestion.PRICES_FILE, "\n".join(prices) + "\n")
    _write_jsonl(data_dir / ingestion.LABELS_FILE, manifest.labels)
    _atomic_write(data_dir / "manifest.json", json.dumps(manifest.to_dict(), sort_keys=True, indent=1) + "\n")
    _atomic_write(data_dir / "scenario.json", params.to_json() + "\n")
    print(f"simulate: {len(records)} registrations, {len(txs)} txs, {len(utxos)} utxos -> {data_dir}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    if not args.data_dir:
        raise ConfigError("--data-dir is required for ingest")
    data_dir = Path(args.data_dir)
    out = Path(args.out) / "ingested"

    regs: list[dict] = []

    def keep_registration(obj: dict) -> None:
        corpus.parse_registration_record(obj)
        regs.append(obj)

    counts = ingestion.drain(
        ingestion.FixtureSource.from_dir(_require(data_dir / ingestion.REGISTRATIONS_DIR, "simulate")),
        keep_registration,
    )
    txs: list[dict] = []

    def keep_transaction(obj: dict) -> None:
        tx_analysis.parse_transaction_record(obj)
        txs.append(obj)

    tx_counts = ingestion.DrainCounts()
    if (data_dir / ingestion.TXS_DIR).exists():
        tx_counts = ingestion.drain(ingestion.FixtureSource.from_dir(data_dir / ingestion.TXS_DIR), keep_transaction)
    if (data_dir / ingestion.UTXOS_DIR).exists():
        expanded: list[dict] = []

        def expand(obj: dict) -> None:
            for tx in tx_analysis.utxo_expand(tx_analysis.parse_utxo_record(obj)):
                expanded.append(
                    {
                        "hash": tx.hash,
                        "sender": tx.sender,
                        "receiver": tx.receiver,
                        "amount": round(tx.amount, 9),
                        "asset": tx.asset,
                        "timestamp": tx.timestamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
                        "origin": tx.origin,
                    }
                )

        utxo_counts = ingestion.drain(ingestion.FixtureSource.from_dir(data_dir / ingestion.UTXOS_DIR), expand)
        txs.extend(expanded)
        tx_counts.fetched += utxo_counts.fetched
        tx_counts.parsed += utxo_counts.parsed
        tx_counts.failed += utxo_counts.failed

    _write_jsonl(out / "registrations.jsonl", regs)
    _write_jsonl(out / "transactions.jsonl", txs)
    for name in (ingestion.PRICES_FILE, ingestion.LABELS_FILE):
        if (data_dir / name).exists():
            _atomic_write(out / name, (data_dir / name).read_text())
    print(
        f"ingest: registrations {counts.parsed}/{counts.fetched} "
        f"(failed {counts.failed}), transactions {tx_counts.parsed}/{tx_counts.fetched} "
        f"(failed {tx_counts.failed}) -> {out}"
    )
    return EXIT_OK


def _load_dataset(out: Path) -> corpus.Dataset:
    lines, records = _read_jsonl(_require(out / "ingested" / "registrations.jsonl", "ingest"))
    return corpus.load_registrations(records, lines)


def _load_transactions(out: Path) -> Iterator[tx_analysis.Transaction]:
    lines, records = _read_jsonl(_require(out / "ingested" / "transactions.jsonl", "ingest"))
    return (tx_analysis.parse_transaction_record(obj, line=line) for line, obj in zip(lines, records))


def _load_labels(out: Path) -> ground_truth.AddressLabelSet:
    path = out / "ingested" / "labels.jsonl"
    if not path.exists():
        return ground_truth.AddressLabelSet()
    lines, records = _read_jsonl(path)
    return ground_truth.AddressLabelSet.from_records(records, lines)


def _load_prices(out: Path) -> tx_analysis.PriceTable | None:
    path = out / "ingested" / "prices.csv"
    if not path.exists():
        return None
    with open(path) as fh:
        return tx_analysis.PriceTable.from_csv(fh)


def cmd_score(args) -> int:
    out = Path(args.out)
    dataset = _load_dataset(out)
    stats = ground_truth.compute_wallet_stats(dataset, tx_analysis.tx_count_index(_load_transactions(out)))
    stats = ground_truth.filter_labeled(stats, _load_labels(out))
    ranked = ground_truth.rank_wallets(stats)
    targets = ground_truth.select_targets(
        stats, dataset, top_n=args.top_n, min_label_len=args.min_label_len
    )
    if args.namespace:
        targets = [t for t in targets if t.namespace == args.namespace]
    _write_csv(
        out / "score" / "wallet_stats.csv",
        ["address", "w_t", "w_d", "score"],
        [[s.address, s.w_t, s.w_d, f"{s.score:.6f}"] for s in ranked],
    )
    _atomic_write(
        out / "score" / "targets.json",
        json.dumps(
            [{"display": t.display, "namespace": t.namespace} for t in targets],
            sort_keys=True,
            indent=1,
        )
        + "\n",
    )
    print(f"score: {len(ranked)} wallets ranked, {len(targets)} targets -> {out / 'score'}")
    return EXIT_OK


def cmd_detect(args) -> int:
    out = Path(args.out)
    dataset = _load_dataset(out)
    target_objs = json.loads(_require(out / "score" / "targets.json", "score").read_text())
    targets = [corpus.normalize_name(t["display"], t["namespace"]) for t in target_objs]
    clusters = squat_detector.detect(targets, dataset, cross_tld=args.cross_tld)
    lines = []
    rows = []
    for cluster in clusters:
        deltas = [
            (e.registration.registered_at - cluster.target.registered_at).total_seconds() / 86400.0
            for e in cluster.squats
        ]
        lines.append(
            {
                "target": cluster.target.name.display,
                "namespace": cluster.target.name.namespace,
                "squats": [
                    {
                        "display": e.registration.name.display,
                        "model": e.model.value,
                        "position": e.change_position,
                        "owner": e.registration.owner,
                    }
                    for e in cluster.squats
                ],
                "defensive": [r.name.display for r in cluster.defensive],
            }
        )
        rows.append(
            [
                cluster.target.name.display,
                len(cluster.squats),
                len(cluster.defensive),
                f"{min(deltas):.3f}" if deltas else "",
                ";".join(sorted({e.model.value for e in cluster.squats})),
            ]
        )
    _write_jsonl(out / "detect" / "clusters.jsonl", lines)
    _write_csv(
        out / "detect" / "clusters_summary.csv",
        ["target", "n_squats", "n_defensive", "min_delta_days", "models"],
        rows,
    )
    print(f"detect: {len(clusters)} clusters -> {out / 'detect'}")
    return EXIT_OK


def _load_clusters(out: Path, dataset: corpus.Dataset) -> list[squat_detector.SquatCluster]:
    """The clusters ``detect`` wrote; a malformed entry, or a display not in
    ``dataset``, is a ParseError naming the line and field."""

    def registration(display, line: int, field: str) -> corpus.Registration:
        try:
            return dataset.by_display[display]
        except (KeyError, TypeError):
            raise ParseError(f"{display!r} is not a registered display", line=line, field=field) from None

    lines, records = _read_jsonl(_require(out / "detect" / "clusters.jsonl", "detect"))
    clusters = []
    for line, obj in zip(lines, records):
        corpus.require_fields(obj, ("target", "squats", "defensive"), line)
        cluster = squat_detector.SquatCluster(target=registration(obj["target"], line, "target"))
        for s in obj["squats"]:
            corpus.require_fields(s, ("display", "model", "position"), line)
            try:
                model = squat_detector.TypoModel(s["model"])
            except ValueError:
                raise ParseError(f"unknown typo model {s['model']!r}", line=line, field="model") from None
            cluster.squats.append(
                squat_detector.SquatEntry(registration(s["display"], line, "squats"), model, s["position"])
            )
        cluster.defensive = [registration(d, line, "defensive") for d in obj["defensive"]]
        clusters.append(cluster)
    return clusters


def cmd_analyze_tx(args) -> int:
    out = Path(args.out)
    dataset = _load_dataset(out)
    clusters = _load_clusters(out, dataset)
    store, labels, prices = tx_analysis.TxStore(_load_transactions(out)), _load_labels(out), _load_prices(out)
    records = []
    for cluster in clusters:
        records.extend(tx_analysis.common_senders(cluster, store, labels, prices))
    _write_csv(
        out / "tx" / "common_senders.csv",
        ["sender", "sender_class", "target", "typo", "n_legit_txs", "n_typo_txs", "usd_to_typo", "delta_days"],
        [
            [
                r.sender,
                r.sender_class,
                r.target_name.display,
                r.typo_name.display,
                len(r.legit_txs),
                len(r.typo_txs),
                f"{r.usd_to_typo:.2f}" if r.usd_to_typo is not None else "",
                f"{r.delta_days:.4f}",
            ]
            for r in records
        ],
    )
    summary = {}
    if prices is not None:
        fs = tx_analysis.funds_summary(records, prices)
        summary = {"mean_usd": round(fs.mean_usd, 6), "median_usd": round(fs.median_usd, 6)}
    all_rows = []
    for cluster in clusters:
        for display, counts in tx_analysis.all_senders_counts(cluster, store).items():
            all_rows.append([display, counts["unique_senders"], counts["transactions"]])
    _write_csv(out / "tx" / "all_senders.csv", ["typo", "unique_senders", "transactions"], all_rows)
    _write_csv(
        out / "tx" / "time_deltas.csv",
        ["delta_days"],
        [[f"{r.delta_days:.4f}"] for r in records],
    )
    _atomic_write(out / "tx" / "funds_summary.json", json.dumps(summary, sort_keys=True, indent=1) + "\n")
    print(f"analyze-tx: {len(records)} common-sender records -> {out / 'tx'}")
    return EXIT_OK


def cmd_report(args) -> int:
    out = Path(args.out)
    dataset = _load_dataset(out)
    clusters = _load_clusters(out, dataset)
    stats = squat_detector.registration_stats(clusters)
    report_dir = out / "report"
    _write_csv(
        report_dir / "model_histogram.csv",
        ["model", "count"],
        [[m.value, stats.model_histogram.get(m, 0)] for m in squat_detector.TypoModel],
    )
    _write_csv(
        report_dir / "yearly_counts.csv",
        ["year", "count"],
        [[y, c] for y, c in sorted(stats.per_year.items())],
    )
    _write_csv(
        report_dir / "typos_per_target.csv",
        ["n_squats", "n_targets"],
        [[n, c] for n, c in sorted(stats.typos_per_target.items())],
    )
    _write_csv(
        report_dir / "reg_time_deltas.csv",
        ["delta_days"],
        [[f"{d:.4f}"] for d in stats.delta_days],
    )

    low, high = args.sim_thresholds
    profiles = squat_detector.squatter_profiles(clusters, dataset)
    typo_by_wallet: dict[str, set[str]] = {}
    for cluster in clusters:
        for e in cluster.squats:
            typo_by_wallet.setdefault(e.registration.owner, set()).add(e.registration.name.label)
    provider = TrigramProvider()
    rows = []
    for profile in profiles:
        wallet_labels = sorted(
            n.label for n in dataset.by_owner.get(profile.wallet, set())
        )
        summary = None
        if len(wallet_labels) >= 2:
            try:
                summary = wallet_similarity(
                    profile.wallet,
                    wallet_labels,
                    sorted(typo_by_wallet.get(profile.wallet, set())),
                    provider,
                    low=low,
                    high=high,
                )
            except InsufficientNames:
                summary = None
        style = squat_detector.classify_campaign(profile, summary, low=low, high=high)
        rows.append(
            [
                profile.wallet,
                profile.unique_targets,
                profile.typo_names,
                profile.total_domains_owned,
                f"{summary.many_to_many_avg:.4f}" if summary else "",
                style.value,
            ]
        )
    _write_csv(
        report_dir / "squatters.csv",
        ["wallet", "unique_targets", "typo_names", "total_domains_owned", "many_to_many_avg", "campaign_style"],
        rows,
    )
    summary_obj = {
        "n_clusters": len(clusters),
        "n_squats": sum(len(c.squats) for c in clusters),
        "n_defensive": sum(len(c.defensive) for c in clusters),
        "first_char_fraction": round(stats.first_char_fraction, 6),
        "cross_namespace_fraction": round(squat_detector.cross_namespace_fraction(profiles), 6),
    }
    if not args.fixed_clock:
        summary_obj["generated_at"] = datetime.now(timezone.utc).isoformat()
    _atomic_write(report_dir / "summary.json", json.dumps(summary_obj, sort_keys=True, indent=1) + "\n")
    print(f"report: {len(clusters)} clusters summarized -> {report_dir}")
    return EXIT_OK


def cmd_guard_check(args) -> int:
    history = typoguard.GuardHistory()
    if args.history:
        lines, records = _read_jsonl(Path(args.history))
        history = typoguard.GuardHistory.load(records, lines)
    blocklist = typoguard.NameIndex()
    if args.blocklist:
        with open(args.blocklist) as fh:
            blocklist = typoguard.load_name_list(fh)
    popular = typoguard.NameIndex()
    if args.popular:
        with open(args.popular) as fh:
            popular = typoguard.load_name_list(fh)
    if args.namespace:
        recipient = corpus.normalize_name(args.recipient, args.namespace)
    else:
        recipient = corpus.parse_display(args.recipient)
    verdict = typoguard.check(history, blocklist, popular, recipient)
    print(
        json.dumps(
            {
                "decision": verdict.decision.value.upper(),
                "reason": verdict.reason.value,
                "matched_target": verdict.matched_target.display if verdict.matched_target else None,
                "model": verdict.model.value if verdict.model else None,
                "recipient": recipient.display,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


# --- entry point ------------------------------------------------------------


def _parse_thresholds(text: str) -> tuple[float, float]:
    try:
        low, high = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--sim-thresholds must be 'low,high': {text!r}") from exc
    if not 0 <= low < high <= 1:
        raise ConfigError("similarity thresholds must satisfy 0 <= low < high <= 1")
    return low, high


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bnsquat", description=__doc__)
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="artifact output directory")
        p.add_argument("--fixed-clock", action="store_true",
                       help="omit wall-clock timestamps for reproducible outputs")

    p = sub.add_parser("simulate", help="generate a synthetic fixture set")
    common(p)
    p.add_argument("--data-dir", default=None, help="fixture directory (default: <out>/fixtures)")
    p.add_argument("--scenario", default=None, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="drain fixtures into normalized artifacts")
    common(p)
    p.add_argument("--data-dir", default=None, help="fixture directory to drain (required)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("score", help="rank wallets and select targets")
    common(p)
    p.add_argument("--top-n", type=int, default=ground_truth.DEFAULT_TOP_N)
    p.add_argument("--min-label-len", type=int, default=ground_truth.DEFAULT_MIN_LABEL_LEN)
    p.add_argument("--namespace", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("detect", help="build squat clusters for the selected targets")
    common(p)
    p.add_argument("--cross-tld", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("analyze-tx", help="common-sender and funds analysis")
    common(p)
    p.set_defaults(func=cmd_analyze_tx)

    p = sub.add_parser("report", help="emit figure-ready CSV/JSON series")
    common(p)
    p.add_argument("--sim-thresholds", type=_parse_thresholds, default=(0.5, 0.75))
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("guard-check", help="cold/warm typo check for one recipient")
    p.add_argument("--history", default=None)
    p.add_argument("--blocklist", default=None)
    p.add_argument("--popular", default=None)
    p.add_argument("--namespace", default=None)
    p.add_argument("--recipient", required=True)
    p.set_defaults(func=cmd_guard_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        _fail("config", exc)
        return EXIT_CONFIG
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        _fail("config", exc)
        return EXIT_CONFIG
    except MissingPrerequisite as exc:
        _fail("prerequisite", exc)
        return EXIT_PREREQUISITE
    except (ParseError, FileNotFoundError, BnsquatError) as exc:
        _fail("data", exc)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover
        _fail("internal", exc)
        return EXIT_INTERNAL


def _fail(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
