"""The ``--fixed-clock`` pipeline's artifacts, pinned by SHA-256.

``simulate --seed 7 → ingest → score --top-n 100 → detect [--cross-tld] →
analyze-tx → report`` runs in process, once without and once with
``--cross-tld``, and every file it writes is hashed. The digests must match
``fixed_clock_digests.json`` beside this file, so a change that alters any
artifact by one byte fails here. A change that means to alter outputs
regenerates the table and says why:

    PYTHONPATH=src python tests/test_fixed_clock_digests.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from bnsquat.cli import main

TABLE = Path(__file__).with_name("fixed_clock_digests.json")
VARIANTS = {"plain": [], "cross_tld": ["--cross-tld"]}


def pipeline_digests(root: Path) -> dict[str, dict[str, str]]:
    """Run the pipeline under ``root``; SHA-256 of each artifact, per variant."""
    shared = root / "shared"
    base = ["--out", str(shared), "--fixed-clock"]
    assert main(["simulate", *base, "--seed", "7"]) == 0
    assert main(["ingest", *base, "--data-dir", str(shared / "fixtures")]) == 0
    assert main(["score", *base, "--top-n", "100"]) == 0
    digests = {}
    for variant, flags in VARIANTS.items():
        out = root / variant
        shutil.copytree(shared, out)
        base = ["--out", str(out), "--fixed-clock"]
        assert main(["detect", *base, *flags]) == 0
        assert main(["analyze-tx", *base]) == 0
        assert main(["report", *base]) == 0
        digests[variant] = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
    return digests


def test_fixed_clock_artifacts_match_the_digest_table(tmp_path):
    want = json.loads(TABLE.read_text())
    got = pipeline_digests(tmp_path)
    for variant in VARIANTS:
        assert sorted(got[variant]) == sorted(want[variant]), variant
        changed = [rel for rel in want[variant] if got[variant][rel] != want[variant][rel]]
        assert changed == [], variant


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(pipeline_digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
