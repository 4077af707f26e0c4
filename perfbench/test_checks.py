"""Each benchmark check passes on the program's real outputs and fails on a
deliberately corrupted copy of them.

Run with: PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import guardload  # noqa: E402
from bnsquat import cli, typoguard  # noqa: E402
from bnsquat.corpus import normalize_name  # noqa: E402

SMALL = {
    "ens-ud-crosstld": dict(n_targets=12, n_ud_targets=6, n_background=200, n_ud_background=100,
                            target_payments=(8, 10)),
    "ada-utxo": dict(n_targets=10, n_background=200, target_payments=(8, 10),
                     squatter_extra_names=(2, 5)),
}


def run_pipeline(workload: str, tmp: Path):
    planted = fixtures.build(workload, 3, tmp / "fixtures", SMALL[workload])
    out = str(tmp / "out")
    top_n = SMALL[workload]["n_targets"] + SMALL[workload].get("n_ud_targets", 0)
    for argv in (["ingest", "--data-dir", str(tmp / "fixtures")], ["score", "--top-n", str(top_n)],
                 ["detect", "--cross-tld"], ["analyze-tx"], ["report"]):
        assert cli.main([argv[0], "--out", out, *argv[1:]]) == 0
    return Path(out), planted


@pytest.fixture(scope="module")
def ens(tmp_path_factory):
    return run_pipeline("ens-ud-crosstld", tmp_path_factory.mktemp("ens"))


@pytest.fixture(scope="module")
def ada(tmp_path_factory):
    return run_pipeline("ada-utxo", tmp_path_factory.mktemp("ada"))


def rewrite(path: Path, edit):
    original = path.read_text()
    path.write_text(edit(original))
    return original


def test_pipelines_pass_every_check(ens, ada):
    for out, planted in (ens, ada):
        assert checks.check_pipeline(out, planted) == []
    assert ens[1].cross_tld, "the ENS/UD set must plant cross-TLD squats"
    assert ada[1].utxo_inputs and any(k > 1 for k, _ in ada[1].utxo_inputs.values())


def test_dropped_cross_tld_squat_is_caught(ens):
    out, planted = ens
    target, squat = sorted(planted.cross_tld)[0]

    def drop(text):
        lines = []
        for line in text.splitlines():
            obj = json.loads(line)
            obj["squats"] = [s for s in obj["squats"] if s["display"] != squat]
            lines.append(json.dumps(obj))
        return "\n".join(lines) + "\n"

    path = out / "detect" / "clusters.jsonl"
    original = rewrite(path, drop)
    try:
        errors = checks.check_clusters(out, planted)
    finally:
        path.write_text(original)
    assert any("cross-TLD squat" in e and squat in e for e in errors)


def test_wrong_model_and_absent_names_are_caught(ens):
    out, planted = ens
    absent = sorted(planted.absent)[0]

    def corrupt(text):
        lines = [json.loads(line) for line in text.splitlines()]
        lines[0]["squats"][0]["model"] = "Addition" if lines[0]["squats"][0]["model"] != "Addition" else "Removal"
        lines[0]["defensive"].append(absent)
        return "".join(json.dumps(obj) + "\n" for obj in lines)

    path = out / "detect" / "clusters.jsonl"
    original = rewrite(path, corrupt)
    try:
        errors = checks.check_clusters(out, planted)
    finally:
        path.write_text(original)
    assert any("oracle says" in e for e in errors)
    assert any(absent in e and "must not appear" in e for e in errors)


def test_extra_or_missing_target_is_caught(ens):
    out, planted = ens
    path = out / "score" / "targets.json"
    dropped = sorted(planted.targets)[0]

    def corrupt(text):
        targets = [t for t in json.loads(text) if t["display"] != dropped]
        return json.dumps(targets + [dict(targets[0], display="notplanted.eth")])

    original = rewrite(path, corrupt)
    try:
        errors = checks.check_targets(out, planted)
    finally:
        path.write_text(original)
    assert any("missing" in e and dropped in e for e in errors)
    assert any("unexpected" in e and "notplanted.eth" in e for e in errors)


def test_wrong_report_count_is_caught(ens):
    out, planted = ens
    path = out / "report" / "summary.json"
    original = rewrite(path, lambda t: json.dumps({**json.loads(t), "n_squats": json.loads(t)["n_squats"] - 1}))
    try:
        errors = checks.check_report(out, planted)
    finally:
        path.write_text(original)
    assert any("n_squats" in e for e in errors)


def test_wrong_usd_total_is_caught(ada):
    out, planted = ada
    path = out / "tx" / "common_senders.csv"

    def corrupt(text):
        rows = list(csv.reader(text.splitlines()))
        rows[1][6] = f"{float(rows[1][6]) + 1.0:.2f}"
        return "".join(",".join(r) + "\n" for r in rows)

    original = rewrite(path, corrupt)
    try:
        errors = checks.check_common_senders(out, planted)
    finally:
        path.write_text(original)
    assert any("usd_to_typo" in e for e in errors)

    path = out / "tx" / "funds_summary.json"
    original = rewrite(path, lambda t: json.dumps({**json.loads(t), "mean_usd": json.loads(t)["mean_usd"] + 0.01}))
    try:
        assert any("mean_usd" in e for e in checks.check_funds(out, planted))
    finally:
        path.write_text(original)


def test_missing_common_sender_is_caught(ada):
    out, planted = ada
    path = out / "tx" / "common_senders.csv"
    original = rewrite(path, lambda t: "".join(t.splitlines(keepends=True)[:-1]))
    try:
        assert any("missing" in e for e in checks.check_common_senders(out, planted))
    finally:
        path.write_text(original)


def test_broken_utxo_conservation_is_caught(ada):
    out, planted = ada
    path = out / "ingested" / "transactions.jsonl"

    def corrupt(text):
        lines = [json.loads(line) for line in text.splitlines()]
        first = next(obj for obj in lines if obj.get("origin") == "utxo_expanded")
        first["amount"] += 1e-6
        return "".join(json.dumps(obj) + "\n" for obj in lines)

    original = rewrite(path, corrupt)
    try:
        assert any("sum to" in e for e in checks.check_utxo_conservation(out, planted))
    finally:
        path.write_text(original)


def small_scenario():
    rng = random.Random(5)
    popular = guardload.popular_names(rng, 300)
    return guardload.build(rng, popular, guardload.blocklist_for(rng, popular, 20), 9, (5, 40), 120)


def test_guard_verdicts_pass_and_a_flipped_one_is_caught():
    scenario = small_scenario()
    assert {r.cls for r in scenario.requests} == set(guardload.CLASSES)
    popular_set = typoguard.load_name_list(scenario.popular)
    blocklist = typoguard.load_name_list(scenario.blocklist)
    histories = [typoguard.GuardHistory.load(h) for h in scenario.histories]
    got = []
    for req in scenario.requests:
        name = normalize_name(req.display, req.namespace)
        v = typoguard.check(histories[req.user], blocklist, popular_set, name)
        if v.decision is typoguard.Decision.ALLOW:
            typoguard.record_send(histories[req.user], name)
        got.append((v.decision.value, v.reason.value,
                    v.matched_target.display if v.matched_target else None, v.model.value if v.model else None))
    assert guardload.check_verdicts(scenario, got) == []
    i = next(i for i, r in enumerate(scenario.requests) if r.cls == "clean")
    flipped = list(got)
    flipped[i] = ("Warn", "ColdVariantOfPopular", scenario.popular[0], "Addition")
    errors = guardload.check_verdicts(scenario, flipped)
    assert any(scenario.requests[i].display in e for e in errors)


def test_guard_check_cli_passes_and_a_flipped_one_is_caught(tmp_path, capsys):
    scenario = small_scenario()
    (tmp_path / "popular.txt").write_text("".join(d + "\n" for d in scenario.popular))
    (tmp_path / "blocklist.txt").write_text("".join(d + "\n" for d in scenario.blocklist))
    for cls in guardload.CLASSES:
        req = next(r for r in scenario.requests if r.cls == cls)
        history = tmp_path / f"history-{req.user}.jsonl"
        history.write_text("".join(json.dumps(h) + "\n" for h in scenario.histories[req.user]))
        assert cli.main(["guard-check", "--popular", str(tmp_path / "popular.txt"),
                         "--blocklist", str(tmp_path / "blocklist.txt"), "--history", str(history),
                         "--recipient", req.display]) == 0
        stdout = capsys.readouterr().out
        assert guardload.check_cli_verdict(req, stdout) == []
        got = json.loads(stdout)
        got["decision"] = "ALLOW" if got["decision"] == "WARN" else "WARN"
        assert any(req.display in e for e in guardload.check_cli_verdict(req, json.dumps(got)))


def test_tail_replay_checks_requests_in_their_round_state(monkeypatch):
    import dataclasses
    from types import SimpleNamespace

    import run

    scenario = small_scenario()
    workload = SimpleNamespace(
        scenario=scenario, names=[normalize_name(r.display, r.namespace) for r in scenario.requests],
        popular=typoguard.load_name_list(scenario.popular), blocklist=typoguard.load_name_list(scenario.blocklist))
    n = len(scenario.requests)
    bench = SimpleNamespace(errors=[], replayed=0)
    best = {k: [1.0] * n for k in run.TIMES}
    sends: dict[int, tuple] = {}  # id of a history -> (the history, kept alive; its sends)
    record_send = typoguard.record_send

    def recording(history, name):
        sends.setdefault(id(history), (history, []))[1].append(name.display)
        return record_send(history, name)

    monkeypatch.setattr(typoguard, "record_send", recording)
    run.Run.replay_tail(bench, workload, best)
    assert bench.errors == []
    replayed = [j for j in range(n) if best["lat"][j] < 1.0]
    assert len(replayed) >= min(n, run.TAIL_REPLAYS)
    assert all(best[k][j] < 1.0 for k in run.TIMES for j in replayed)
    # Each replayed user's history gets the sends of the round, in its order, up
    # to the user's last replayed request: the state each check had in the round.
    want = []
    for user in {scenario.requests[j].user for j in replayed}:
        end = max(j for j in replayed if scenario.requests[j].user == user)
        allowed = [r.display for r in scenario.requests[:end + 1] if r.user == user and r.decision == "Allow"]
        want += [allowed] if allowed else []
    assert sorted(names for _, names in sends.values()) == sorted(want)
    monkeypatch.undo()
    j = next(j for j in replayed if scenario.requests[j].cls == "clean")
    scenario.requests[j] = dataclasses.replace(scenario.requests[j], decision="Warn")
    run.Run.replay_tail(bench, workload, best)
    assert any(scenario.requests[j].display in e for e in bench.errors)


def test_cold_setup_loads_every_input(tmp_path):
    import run

    scenario = small_scenario()
    run.write_wallet_inputs(scenario, tmp_path)
    proc = subprocess.run([sys.executable, str(HERE / "setup_stage.py"), str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")), check=True)
    got = json.loads(proc.stdout)
    assert got["setup_s"] > 0
    assert (got["popular"], got["blocklist"], got["histories"], got["requests"]) == (
        len(set(scenario.popular)), len(set(scenario.blocklist)), len(scenario.histories), len(scenario.requests))
