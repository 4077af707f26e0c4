"""Spans around the public functions of each bnsquat module, from outside it.

``instrument`` replaces module and class attributes with timing wrappers; the
program's source is untouched. A span records (id, parent, name, start, end)
plus counts taken from the call's arguments and result. Functions called
thousands of times per request (``classify``, ``utxo_expand``, trigram
``embed``, page fetches) are aggregated instead: their call count, total time
and item count are added to the enclosing span, which keeps memory flat and
still lets self time subtract them. Spans stay in memory until ``dump``.

Self time of a span is its duration minus the time its child spans and
aggregated calls cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._undo: list[tuple] = []
        self._root = {"id": 0, "leaves": {}}  # collects aggregated calls made outside any span

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span per call. ``before(args, kwargs)`` and ``after(args, result)``
        return dicts of counts for the span."""
        orig = getattr(owner, attr)
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span = {"id": len(spans) + len(stack) + 1, "parent": stack[-1]["id"] if stack else None,
                    "name": name, "counts": before(args, kwargs) if before else {}, "leaves": {}}
            stack.append(span)
            span["start"] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
                spans.append(span)
            if after:
                span["counts"].update(after(args, result))
            return result

        self._replace(owner, attr, orig, traced)

    def wrap_leaf(self, owner, attr: str, name: str, items=None) -> None:
        """Aggregate calls into the enclosing span: [calls, seconds, items]."""
        orig = getattr(owner, attr)
        stack, root = self._stack, self._root

        def counted(*args, **kwargs):
            t0 = perf_counter()
            result = orig(*args, **kwargs)
            dt = perf_counter() - t0
            entry = (stack[-1] if stack else root)["leaves"].setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += dt
            if items:
                entry[2] += items(result)
            return result

        self._replace(owner, attr, orig, counted)

    def _replace(self, owner, attr, orig, wrapper) -> None:
        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def take(self) -> list[dict]:
        """Hand over the finished spans (root-level aggregates as one span) and reset."""
        spans = list(self.spans)
        if self._root["leaves"]:
            spans.append({"id": 0, "parent": None, "name": "(root)", "counts": {},
                          "leaves": self._root["leaves"], "start": 0.0, "end": 0.0})
        # The wrappers hold these containers, so they are emptied, not replaced.
        self.spans.clear()
        self._stack.clear()
        self._root["leaves"] = {}
        return spans

    def dump(self, path: Path) -> None:
        Path(path).write_text("".join(json.dumps(s) + "\n" for s in self.take()))


def _detect_scope(args, kwargs) -> dict:
    """The UD namespaces a cross-TLD lookup probes; counted before the call starts."""
    dataset = args[1]
    return {
        "cross_tld": bool(kwargs.get("cross_tld", args[3] if len(args) > 3 else False)),
        "ud_namespaces": len({r.name.namespace for r in dataset.registrations if r.name.namespace.startswith("ud:")}),
    }


def instrument(tracer: Tracer) -> None:
    """Wrap every public entry point the metrics below read."""
    from bnsquat import (cli, corpus, ground_truth, ingestion, similarity, squat_detector,
                         tx_analysis, typo_models, typoguard)

    for stage in ("ingest", "score", "detect", "analyze_tx", "report", "guard_check"):
        tracer.wrap(cli, f"cmd_{stage}", f"cli.{stage}")
    tracer.wrap(corpus, "load_registrations", "corpus.load_registrations",
                after=lambda a, r: {"registrations": len(r)})
    tracer.wrap(ingestion, "drain", "ingestion.drain", after=lambda a, r: {"records": r.fetched})
    tracer.wrap_leaf(ingestion.FixtureSource, "fetch_page", "ingestion.fetch_page")
    tracer.wrap(tx_analysis.TxStore, "__init__", "tx_analysis.txstore_build",
                after=lambda a, r: {"transactions": len(a[0])})
    tracer.wrap_leaf(tx_analysis, "utxo_expand", "tx_analysis.utxo_expand", items=len)
    tracer.wrap(tx_analysis, "common_senders", "tx_analysis.common_senders",
                after=lambda a, r: {"records": len(r)})
    tracer.wrap(tx_analysis, "all_senders_counts", "tx_analysis.all_senders_counts")
    tracer.wrap(tx_analysis, "funds_summary", "tx_analysis.funds_summary")
    tracer.wrap(ground_truth, "compute_wallet_stats", "ground_truth.compute_wallet_stats")
    tracer.wrap(ground_truth, "select_targets", "ground_truth.select_targets",
                after=lambda a, r: {"targets": len(r)})
    for module in (typo_models, squat_detector):
        tracer.wrap(module, "generate_all", "typo_models.generate_all",
                    after=lambda a, r: {"variants": len(r), "ud": a[0].namespace.startswith("ud:")})
    tracer.wrap(squat_detector, "detect", "squat_detector.detect", before=_detect_scope,
                after=lambda a, r: {"squats": sum(len(c.squats) for c in r)})
    tracer.wrap(squat_detector, "registration_stats", "squat_detector.registration_stats")
    tracer.wrap(squat_detector, "squatter_profiles", "squat_detector.squatter_profiles")
    for module in (similarity, cli):
        tracer.wrap(module, "wallet_similarity", "similarity.wallet_similarity")
    tracer.wrap_leaf(similarity.TrigramProvider, "embed", "similarity.embed")
    for module in (typo_models, typoguard):
        tracer.wrap_leaf(module, "classify", "typo_models.classify")
    tracer.wrap(typoguard, "check", "typoguard.check",
                after=lambda a, r: {"warn": r.decision is typoguard.Decision.WARN})
    tracer.wrap(typoguard.GuardHistory, "names", "typoguard.history_names")
    tracer.wrap(typoguard, "record_send", "typoguard.record_send",
                before=lambda a, k: {"added": a[1].display not in a[0].entries})
    tracer.wrap(typoguard, "load_name_list", "typoguard.load_name_list")


# --- metrics -----------------------------------------------------------------


class _Round:
    """Queries over the spans of one round (possibly from several processes)."""

    def __init__(self, spans: list[dict]):
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[tuple, list[dict]] = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[(s["proc"], s["parent"])].append(s)

    def time(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def count(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.by_name[name])

    def leaf(self, name: str, field: int) -> float:
        return sum(s["leaves"].get(name, (0, 0.0, 0))[field] for spans in self.by_name.values() for s in spans)

    def self_time(self, name: str) -> float:
        total = 0.0
        for s in self.by_name[name]:
            covered = sum(c["end"] - c["start"] for c in self.children[(s["proc"], s["id"])])
            covered += sum(entry[1] for entry in s["leaves"].values())
            total += s["end"] - s["start"] - covered
        return total

    def lookups(self) -> int:
        """Variants probed times the namespaces each is probed in."""
        n = 0
        for d in self.by_name["squat_detector.detect"]:
            for g in self.children[(d["proc"], d["id"])]:
                if g["name"] == "typo_models.generate_all":
                    wide = g["counts"]["ud"] and d["counts"]["cross_tld"]
                    n += g["counts"]["variants"] * (d["counts"]["ud_namespaces"] if wide else 1)
        return n


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# name -> (unit, better, value of one round)
PER_LAYER = {
    "cli.ingest_s": ("s", "lower", lambda r: r.time("cli.ingest")),
    "cli.score_s": ("s", "lower", lambda r: r.time("cli.score")),
    "cli.analyze_tx_s": ("s", "lower", lambda r: r.time("cli.analyze_tx")),
    "cli.report_s": ("s", "lower", lambda r: r.time("cli.report")),
    "corpus.load_registrations_s": ("s", "lower", lambda r: r.time("corpus.load_registrations")),
    "corpus.load_registrations_calls": ("count", "lower", lambda r: r.calls("corpus.load_registrations")),
    "corpus.registrations_loaded": ("count", "lower", lambda r: r.count("corpus.load_registrations", "registrations")),
    "ingestion.drain_s": ("s", "lower", lambda r: r.time("ingestion.drain")),
    "ingestion.records_fetched": ("count", "higher", lambda r: r.count("ingestion.drain", "records")),
    "ingestion.pages_fetched": ("count", "lower", lambda r: r.leaf("ingestion.fetch_page", 0)),
    "tx_analysis.txstore_build_s": ("s", "lower", lambda r: r.time("tx_analysis.txstore_build")),
    "tx_analysis.txstore_builds": ("count", "lower", lambda r: r.calls("tx_analysis.txstore_build")),
    "tx_analysis.transactions_indexed": ("count", "lower", lambda r: r.count("tx_analysis.txstore_build", "transactions")),
    "tx_analysis.utxo_expand_s": ("s", "lower", lambda r: r.leaf("tx_analysis.utxo_expand", 1)),
    "tx_analysis.transactions_expanded": ("count", "higher", lambda r: r.leaf("tx_analysis.utxo_expand", 2)),
    "tx_analysis.common_senders_s": ("s", "lower", lambda r: r.time("tx_analysis.common_senders")),
    "tx_analysis.common_sender_records": ("count", "higher", lambda r: r.count("tx_analysis.common_senders", "records")),
    "tx_analysis.all_senders_counts_s": ("s", "lower", lambda r: r.time("tx_analysis.all_senders_counts")),
    "tx_analysis.funds_summary_s": ("s", "lower", lambda r: r.time("tx_analysis.funds_summary")),
    "ground_truth.compute_wallet_stats_s": ("s", "lower", lambda r: r.time("ground_truth.compute_wallet_stats")),
    "ground_truth.select_targets_s": ("s", "lower", lambda r: r.time("ground_truth.select_targets")),
    "ground_truth.targets_selected": ("count", "higher", lambda r: r.count("ground_truth.select_targets", "targets")),
    "typo_models.generate_all_s": ("s", "lower", lambda r: r.time("typo_models.generate_all")),
    "typo_models.generate_all_calls": ("count", "lower", lambda r: r.calls("typo_models.generate_all")),
    "typo_models.variants_generated": ("count", "lower", lambda r: r.count("typo_models.generate_all", "variants")),
    "squat_detector.detect_s": ("s", "lower", lambda r: r.time("squat_detector.detect")),
    "squat_detector.detect_self_s": ("s", "lower", lambda r: r.self_time("squat_detector.detect")),
    "squat_detector.lookups": ("count", "lower", lambda r: r.lookups()),
    "squat_detector.squats_found": ("count", "higher", lambda r: r.count("squat_detector.detect", "squats")),
    "squat_detector.squats_per_lookup": ("ratio", "higher",
                                         lambda r: _ratio(r.count("squat_detector.detect", "squats"), r.lookups())),
    "squat_detector.registration_stats_s": ("s", "lower", lambda r: r.time("squat_detector.registration_stats")),
    "squat_detector.squatter_profiles_s": ("s", "lower", lambda r: r.time("squat_detector.squatter_profiles")),
    "similarity.wallet_similarity_s": ("s", "lower", lambda r: r.time("similarity.wallet_similarity")),
    "similarity.wallet_similarity_calls": ("count", "lower", lambda r: r.calls("similarity.wallet_similarity")),
    "similarity.embed_calls": ("count", "lower", lambda r: r.leaf("similarity.embed", 0)),
    "typo_models.classify_s": ("s", "lower", lambda r: r.leaf("typo_models.classify", 1)),
    "typo_models.classify_calls": ("count", "lower", lambda r: r.leaf("typo_models.classify", 0)),
    "typoguard.check_s": ("s", "lower", lambda r: r.time("typoguard.check")),
    "typoguard.check_self_s": ("s", "lower", lambda r: r.self_time("typoguard.check")),
    "typoguard.check_calls": ("count", "higher", lambda r: r.calls("typoguard.check")),
    "typoguard.warns": ("count", "higher", lambda r: r.count("typoguard.check", "warn")),
    "typoguard.warns_per_classify": ("ratio", "higher",
                                     lambda r: _ratio(r.count("typoguard.check", "warn"),
                                                      r.leaf("typo_models.classify", 0))),
    "typoguard.history_names_s": ("s", "lower", lambda r: r.time("typoguard.history_names")),
    "typoguard.history_names_calls": ("count", "lower", lambda r: r.calls("typoguard.history_names")),
    "typoguard.history_entries_added": ("count", "higher", lambda r: r.count("typoguard.record_send", "added")),
    "typoguard.record_send_s": ("s", "lower", lambda r: r.time("typoguard.record_send")),
    "typoguard.load_name_list_s": ("s", "lower", lambda r: r.time("typoguard.load_name_list")),
}
OVERHEAD = {
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def per_layer_metrics(rounds: list[list[dict]]) -> dict[str, float]:
    """The smallest value of each metric over the traced rounds, which all do
    the same work, so their counts are equal."""
    views = [_Round(spans) for spans in rounds]
    return {name: min(fn(v) for v in views) for name, (_, _, fn) in PER_LAYER.items()}


def units() -> dict[str, str]:
    table = {**PER_LAYER, **OVERHEAD}
    return {name: spec[0] for name, spec in table.items()}
