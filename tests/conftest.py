from __future__ import annotations

from datetime import datetime, timezone

import pytest

from bnsquat.corpus import Name, Registration, build_dataset
from bnsquat.tx_analysis import CommonSenderRecord, PriceTable, Transaction, funds_summary


def ts(year, month=1, day=1, hour=0):
    return datetime(year, month, day, hour, tzinfo=timezone.utc)


def reg(display, owner, resolution=None, registered=None, namespace="eth", source="ens"):
    label = display
    if namespace == "eth":
        label = display.removesuffix(".eth")
    elif namespace == "adah":
        label = display.removeprefix("$")
    else:
        label = display.rsplit(".", 1)[0]
    return Registration(
        name=Name(label, namespace),
        owner=owner,
        resolution_addresses=resolution or {},
        registered_at=registered or ts(2020),
        source=source,
    )


@pytest.fixture
def small_dataset():
    return build_dataset(
        [
            reg("vitalik.eth", "0xowner1", {"ETH": "0xres1"}, ts(2017, 5, 4)),
            reg("vitalikk.eth", "0xsquat1", {"ETH": "0xres2"}, ts(2017, 5, 8)),
            reg("vitalki.eth", "0xsquat2", {"ETH": "0xres3"}, ts(2018, 1, 1)),
            reg("mickey.eth", "0xowner2", {"ETH": "0xres4"}, ts(2019, 6, 1)),
            reg("mickeys.eth", "0xowner2", {"ETH": "0xres5"}, ts(2019, 7, 1)),
            reg("unrelated.eth", "0xowner3", {"ETH": "0xres6"}, ts(2019, 1, 1)),
        ]
    )


def funds_of(values):
    """(mean, median) from ``funds_summary`` over one common-sender record whose
    typo transactions carry ``values`` in ETH at a rate of 1.0 on one day."""
    when = ts(2021, 6, 1)
    typo_txs = tuple(Transaction(f"0x{i}", "0xs", "0xtypo", v, "ETH", when) for i, v in enumerate(values))
    record = CommonSenderRecord(
        "0xs", "non_custodial", Name("target", "eth"), Name("ttarget", "eth"), (), typo_txs, None, 0.0
    )
    summary = funds_summary([record], PriceTable({(when.date(), "ETH"): 1.0}))
    return summary.mean_usd, summary.median_usd
