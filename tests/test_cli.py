from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bnsquat.cli import main


SCENARIO = {
    "n_legit": 120,
    "n_decoys": 20,
    "seed": 11,
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    scenario = out / "scenario_in.json"
    scenario.write_text(json.dumps(SCENARIO))
    base = ["--out", str(out), "--fixed-clock"]
    assert main(["simulate", *base, "--scenario", str(scenario)]) == 0
    assert main(["ingest", *base, "--data-dir", str(out / "fixtures")]) == 0
    # 120 legit wallets far out-traffic squat and decoy wallets, so top 120
    # selects exactly the legitimate names (squats must not become targets).
    assert main(["score", *base, "--top-n", "120"]) == 0
    assert main(["detect", *base]) == 0
    assert main(["analyze-tx", *base]) == 0
    assert main(["report", *base]) == 0
    return out


def read_csv(path: Path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_pipeline_artifacts_exist(pipeline_dir):
    for rel in (
        "fixtures/manifest.json",
        "ingested/registrations.jsonl",
        "ingested/transactions.jsonl",
        "score/wallet_stats.csv",
        "score/targets.json",
        "detect/clusters.jsonl",
        "detect/clusters_summary.csv",
        "tx/common_senders.csv",
        "tx/all_senders.csv",
        "tx/time_deltas.csv",
        "tx/funds_summary.json",
        "report/model_histogram.csv",
        "report/yearly_counts.csv",
        "report/typos_per_target.csv",
        "report/squatters.csv",
        "report/summary.json",
    ):
        assert (pipeline_dir / rel).exists(), rel


def test_detect_output_matches_manifest(pipeline_dir):
    manifest = json.loads((pipeline_dir / "fixtures" / "manifest.json").read_text())
    clusters = [
        json.loads(line)
        for line in (pipeline_dir / "detect" / "clusters.jsonl").read_text().splitlines()
    ]
    got = {
        c["target"]: ({s["display"] for s in c["squats"]}, set(c["defensive"]))
        for c in clusters
    }
    want = {
        c["target"]: ({s["display"] for s in c["squats"]}, set(c["defensive"]))
        for c in manifest["clusters"]
    }
    # Score may promote extra wallets to targets; every planted cluster must
    # still come back exactly as the manifest describes it.
    assert {t: got[t] for t in want} == want


def test_common_senders_match_planted_events(pipeline_dir):
    manifest = json.loads((pipeline_dir / "fixtures" / "manifest.json").read_text())
    rows = read_csv(pipeline_dir / "tx" / "common_senders.csv")
    got = {(r["sender"], r["target"], r["typo"]) for r in rows}
    want = {(e["sender"], e["target"], e["typo"]) for e in manifest["events"]}
    assert got == want
    assert all(r["usd_to_typo"] for r in rows)  # prices present, so USD filled


def test_report_summary_counts(pipeline_dir):
    summary = json.loads((pipeline_dir / "report" / "summary.json").read_text())
    clusters = [
        json.loads(line)
        for line in (pipeline_dir / "detect" / "clusters.jsonl").read_text().splitlines()
    ]
    assert summary["n_clusters"] == len(clusters)
    assert summary["n_squats"] == sum(len(c["squats"]) for c in clusters)
    assert "generated_at" not in summary  # --fixed-clock


def test_stage_reruns_are_idempotent(pipeline_dir):
    before = (pipeline_dir / "detect" / "clusters.jsonl").read_bytes()
    assert main(["detect", "--out", str(pipeline_dir), "--fixed-clock"]) == 0
    assert (pipeline_dir / "detect" / "clusters.jsonl").read_bytes() == before


def test_missing_prerequisite_exits_4(tmp_path):
    assert main(["score", "--out", str(tmp_path)]) == 4
    assert main(["detect", "--out", str(tmp_path)]) == 4


def test_missing_data_dir_is_config_error(tmp_path):
    assert main(["ingest", "--out", str(tmp_path)]) == 2


def test_bad_thresholds_is_config_error(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path), "--sim-thresholds", "0.9,0.1"]) == 2
    assert "error" in capsys.readouterr().err


def test_guard_check_warns_on_typo(tmp_path, capsys):
    popular = tmp_path / "popular.txt"
    popular.write_text("vitalik.eth\n")
    assert main(["guard-check", "--popular", str(popular), "--recipient", "vitalikk.eth"]) == 0
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert verdict["decision"] == "WARN"
    assert verdict["reason"] == "ColdVariantOfPopular"
    assert verdict["matched_target"] == "vitalik.eth"


def test_guard_check_allows_history_hit(tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    history.write_text(
        json.dumps(
            {
                "display": "vitalikk.eth",
                "first_used": "2021-01-01T00:00:00+00:00",
                "last_used": "2021-01-01T00:00:00+00:00",
                "send_count": 3,
            }
        )
        + "\n"
    )
    popular = tmp_path / "popular.txt"
    popular.write_text("vitalik.eth\n")
    assert main(
        ["guard-check", "--history", str(history), "--popular", str(popular),
         "--recipient", "vitalikk.eth"]
    ) == 0
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert verdict["decision"] == "ALLOW"


@pytest.mark.parametrize(
    "popular_line, recipient",
    [("johndoe", "johndoa.eth"), ("johndoe.eth", "johndoa")],
)
def test_guard_check_display_without_tld_is_data_error(tmp_path, capsys, popular_line, recipient):
    popular = tmp_path / "popular.txt"
    popular.write_text(popular_line + "\n")
    assert main(["guard-check", "--popular", str(popular), "--recipient", recipient]) == 3
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "data"


HISTORY_RECORD = {"display": "vitalik.eth", "first_used": "2021-01-01T00:00:00+00:00",
                  "last_used": "2021-01-01T00:00:00+00:00", "send_count": 1}


@pytest.mark.parametrize(
    "second, field",
    [
        ({k: v for k, v in HISTORY_RECORD.items() if k != "first_used"}, "first_used"),
        (dict(HISTORY_RECORD, send_count="x"), "send_count"),
    ],
)
def test_guard_check_malformed_history_is_data_error(tmp_path, capsys, second, field):
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(dict(HISTORY_RECORD, display="walrus.eth")) + "\n" + json.dumps(second) + "\n")
    assert main(["guard-check", "--history", str(history), "--recipient", "vitalikk.eth"]) == 3
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "data"
    assert f"(line 2, field '{field}')" in error["message"]


def test_guard_check_reads_history_timestamps_ending_in_z(tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    history.write_text(json.dumps(
        dict(HISTORY_RECORD, first_used="2021-01-01T00:00:00Z", last_used="2021-02-01T00:00:00Z")) + "\n")
    assert main(["guard-check", "--history", str(history), "--recipient", "vitalikk.eth"]) == 0
    verdict = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (verdict["reason"], verdict["matched_target"]) == ("WarmVariantOfHistory", "vitalik.eth")


def test_ingest_writes_utxo_timestamps_in_utc(tmp_path):
    data = tmp_path / "fixtures"
    (data / "registrations").mkdir(parents=True)
    (data / "registrations" / "corpus.jsonl").write_text(json.dumps(
        {"display": "$handle", "owner": "addr_owner", "registered_at": "2021-01-01T00:00:00Z", "source": "adah"}
    ) + "\n")
    (data / "utxos").mkdir()
    (data / "utxos" / "utxos.jsonl").write_text(json.dumps(
        {"hash": "h1", "inputs": ["addr_a", "addr_b"], "output": "addr_c", "amount": 4.0,
         "timestamp": "2021-06-01T23:30:00+02:00"}
    ) + "\n")
    assert main(["ingest", "--out", str(tmp_path / "out"), "--data-dir", str(data)]) == 0
    lines = (tmp_path / "out" / "ingested" / "transactions.jsonl").read_text().splitlines()
    assert [json.loads(line)["timestamp"] for line in lines] == ["2021-06-01T21:30:00Z"] * 2


def test_fixed_clock_reruns_are_byte_identical(tmp_path):
    def run(out: Path):
        base = ["--out", str(out), "--fixed-clock"]
        scenario = out / "s.json"
        out.mkdir(exist_ok=True)
        scenario.write_text(json.dumps({"n_legit": 60, "n_decoys": 10, "seed": 4}))
        assert main(["simulate", *base, "--scenario", str(scenario)]) == 0
        assert main(["ingest", *base, "--data-dir", str(out / "fixtures")]) == 0
        assert main(["score", *base, "--top-n", "20"]) == 0
        assert main(["detect", *base]) == 0
        assert main(["analyze-tx", *base]) == 0
        assert main(["report", *base]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    run(a)
    run(b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def data_error(capsys) -> str:
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "data"
    return error["message"]


def test_guard_check_history_error_names_the_file_line(tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    record = {k: v for k, v in HISTORY_RECORD.items() if k != "last_used"}
    history.write_text("\n  \n" + json.dumps(record) + "\n")
    assert main(["guard-check", "--history", str(history), "--recipient", "vitalikk.eth"]) == 3
    assert "(line 3, field 'last_used')" in data_error(capsys)


def test_guard_check_missing_history_is_data_error(tmp_path, capsys):
    missing = tmp_path / "no-such-history.jsonl"
    assert main(["guard-check", "--history", str(missing), "--recipient", "vitalikk.eth"]) == 3
    assert str(missing) in data_error(capsys)


def copy_pipeline(pipeline_dir: Path, tmp_path: Path) -> Path:
    out = tmp_path / "out"
    for rel in ("ingested", "score", "detect"):
        shutil.copytree(pipeline_dir / rel, out / rel)
    return out


@pytest.mark.parametrize(
    "record, field",
    [
        ({"amount": -1}, "amount"),
        ({"amount": "lots"}, "amount"),
        ({"sender": ""}, "sender"),
        ({"timestamp": 5}, "timestamp"),
    ],
)
def test_rejected_transaction_value_is_data_error_naming_line(pipeline_dir, tmp_path, capsys, record, field):
    out = copy_pipeline(pipeline_dir, tmp_path)
    txs = out / "ingested" / "transactions.jsonl"
    lines = txs.read_text().splitlines()
    lines[1] = json.dumps(dict(json.loads(lines[1]), **record))
    txs.write_text("\n" + "\n".join(lines) + "\n")
    assert main(["score", "--out", str(out)]) == 3
    assert f"(line 3, field '{field}')" in data_error(capsys)


@pytest.mark.parametrize(
    "record, field",
    [
        ({"owner": ""}, "owner"),
        ({"source": "dns"}, "source"),
        ({"display": ".eth"}, "display"),
        ({"namespace": "com"}, "namespace"),
    ],
)
def test_rejected_registration_value_is_data_error_naming_line(pipeline_dir, tmp_path, capsys, record, field):
    out = copy_pipeline(pipeline_dir, tmp_path)
    regs = out / "ingested" / "registrations.jsonl"
    lines = regs.read_text().splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), **record))
    regs.write_text("\n".join(lines) + "\n")
    assert main(["detect", "--out", str(out)]) == 3
    assert f"(line 1, field '{field}')" in data_error(capsys)


@pytest.mark.parametrize(
    "row, field",
    [("2021-13-01,ETH,100.0", "date"), ("2021-01-01,ETH,lots", "usd_close"), ("2021-01-01,ETH,0", "usd_close")],
)
def test_bad_price_row_is_data_error_naming_line(pipeline_dir, tmp_path, capsys, row, field):
    out = copy_pipeline(pipeline_dir, tmp_path)
    prices = out / "ingested" / "prices.csv"
    lines = prices.read_text().splitlines()
    lines.insert(2, row)
    prices.write_text("\n".join(lines) + "\n")
    assert main(["analyze-tx", "--out", str(out)]) == 3
    assert f"(line 3, field '{field}')" in data_error(capsys)


@pytest.mark.parametrize(
    "text, where",
    [
        ("5", "(line 3)"),
        ('{"address": "0xa", "kind": "mixer"}', "(line 3, field 'kind')"),
        ('{"address": "0xa", "kind": "exchange"}\n{"address": "0xa", "kind": "token_contract"}', "(line 4, field 'kind')"),
    ],
    ids=["not-an-object", "unknown-kind", "both-kinds"],
)
def test_bad_label_record_is_data_error_naming_line(pipeline_dir, tmp_path, capsys, text, where):
    out = copy_pipeline(pipeline_dir, tmp_path)
    labels = out / "ingested" / "labels.jsonl"
    labels.write_text("\n\n" + text + "\n" + labels.read_text())
    assert main(["score", "--out", str(out)]) == 3
    assert where in data_error(capsys)


def test_ud_record_displayed_like_an_ens_name_is_data_error(tmp_path, capsys):
    johndoe = {"display": "johndoe.eth", "owner": "0x1", "registered_at": "2020-01-01T00:00:00Z"}
    records = [dict(johndoe, source="ens"), dict(johndoe, source="ud-eth")]
    regs = tmp_path / "data" / "registrations"
    regs.mkdir(parents=True)
    (regs / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    assert main(["ingest", "--out", str(out), "--data-dir", str(tmp_path / "data")]) == 3
    assert "1/2 records failed" in data_error(capsys)
    ingested = out / "ingested" / "registrations.jsonl"
    ingested.parent.mkdir(parents=True, exist_ok=True)
    ingested.write_text((regs / "corpus.jsonl").read_text())
    assert main(["score", "--out", str(out)]) == 3
    assert "(line 2, field 'display')" in data_error(capsys)


@pytest.mark.parametrize("field", ["target", "squats", "defensive", "model", "position"])
def test_malformed_cluster_is_data_error(pipeline_dir, tmp_path, capsys, field):
    out = copy_pipeline(pipeline_dir, tmp_path)
    clusters = out / "detect" / "clusters.jsonl"
    lines = clusters.read_text().splitlines()
    line = next(i for i, text in enumerate(lines) if json.loads(text)["squats"])
    cluster = json.loads(lines[line])
    if field == "target":
        cluster["target"] = "nobody.eth"
    elif field == "squats":
        cluster["squats"][0]["display"] = "nobody.eth"
    elif field == "defensive":
        cluster["defensive"].append("nobody.eth")
    elif field == "model":
        cluster["squats"][0]["model"] = "Teleport"
    else:
        del cluster["squats"][0]["position"]
    lines[line] = json.dumps(cluster)
    clusters.write_text("\n".join(lines) + "\n")
    assert main(["report", "--out", str(out)]) == 3
    assert f"(line {line + 1}, field '{field}')" in data_error(capsys)


def test_cli_import_loads_only_the_standard_library():
    # A fresh process, so that no other test's imports are counted.
    code = (
        "import sys; before = set(sys.modules); import bnsquat.cli; "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'bnsquat'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
