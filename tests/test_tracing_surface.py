"""The benchmark's tracer wraps program attributes by name; each must exist.

``perfbench/tracing.py`` replaces module and class attributes with timing
wrappers. A renamed attribute makes ``instrument`` raise, and a changed
signature or result breaks the counts it reads, but only in a traced benchmark
run. This test runs the same wrapping and a few traced guard calls.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from bnsquat import typoguard
from bnsquat.corpus import Name

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_every_named_attribute_and_restore_puts_them_back():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        wrapped = list(tracer._undo)
        assert wrapped
        for owner, attr, orig in wrapped:
            assert getattr(owner, attr).__wrapped__ is orig, attr
        popular = typoguard.load_name_list(["vitalik.eth"])
        history = typoguard.GuardHistory()
        for recipient in (Name("walrus", "eth"), Name("vitalikk", "eth"), Name("walrvs", "eth")):
            if typoguard.check(history, set(), popular, recipient).decision is typoguard.Decision.ALLOW:
                typoguard.record_send(history, recipient)
        spans = tracer.take()
    finally:
        tracer.restore()
    for owner, attr, orig in wrapped:
        assert getattr(owner, attr) is orig, attr
    names = [s["name"] for s in spans]
    assert names.count("typoguard.check") == 3
    assert {"typoguard.load_name_list", "typoguard.history_names", "typoguard.record_send"} <= set(names)
    assert [s["counts"]["warn"] for s in spans if s["name"] == "typoguard.check"] == [False, True, True]
    assert any("typo_models.classify" in s["leaves"] for s in spans if s["name"] == "typoguard.check")
