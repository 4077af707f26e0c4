"""The benchmark's oracle against a brute-force recursive edit distance.

Run with: python3 -m pytest perfbench/test_oracle.py
"""

import itertools
import random
import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


@lru_cache(maxsize=None)
def brute(a: str, b: str) -> int:
    """OSA distance by recursion on the first characters, no table."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    options = [brute(a[1:], b) + 1, brute(a, b[1:]) + 1, brute(a[1:], b[1:]) + (a[0] != b[0])]
    if len(a) > 1 and len(b) > 1 and a[0] == b[1] and a[1] == b[0]:
        options.append(brute(a[2:], b[2:]) + 1)
    return min(options)


def strings(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for chars in itertools.product(alphabet, repeat=n):
            yield "".join(chars)


def test_osa_matches_brute_force():
    rng = random.Random(1)
    for _ in range(3000):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        assert oracle.osa(a, b) == brute(a, b), (a, b)


def test_single_edits_are_exactly_the_valid_distance_one_labels():
    alphabet = "abs-"
    for label in strings(alphabet, 4):
        if not label or label[0] == "-" or label[-1] == "-":
            continue
        want = {
            s for s in strings(alphabet, len(label) + 1)
            if len(s) >= len(label) - 1 and s and s[0] != "-" and s[-1] != "-" and brute(s, label) == 1
        }
        assert set(oracle.single_edits(label, alphabet)) == want, label


def test_top_model_follows_priority():
    cases = {
        ("aab", "ab"): "Duplication",
        ("ba", "ab"): "Swapping",
        ("bb", "ab"): "Substitution",
        ("b", "ab"): "Removal",
        ("a-b", "ab"): "Hyphenation",
        ("abs", "ab"): "Pluralization",
        ("abc", "ab"): "Addition",
        ("abc", "xyz"): None,
    }
    for (variant, target), model in cases.items():
        assert oracle.top_model(variant, target, oracle.ETH_ALPHABET) == model, (variant, target)


def test_is_variant_needs_a_valid_label_and_alphabet():
    assert oracle.is_variant("abc_d", "abcd", oracle.ADAH_ALPHABET)
    assert not oracle.is_variant("abc_d", "abcd", oracle.ETH_ALPHABET)
    assert not oracle.is_variant("-abcd", "abcd", oracle.ETH_ALPHABET)
    assert not oracle.is_variant("abcd", "abcd", oracle.ETH_ALPHABET)


def test_near_index_finds_every_label_within_k():
    rng = random.Random(2)
    stored = sorted({"".join(rng.choice("abcd") for _ in range(rng.randint(1, 6))) for _ in range(300)})
    for k in (1, 2):
        index = oracle.NearIndex(k, stored)
        for _ in range(200):
            q = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 7)))
            assert index.near(q) == {s for s in stored if brute(s, q) <= k}, (q, k)
