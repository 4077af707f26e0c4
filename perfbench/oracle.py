"""Edit-distance oracle for the benchmark, written apart from ``bnsquat.typo_models``.

The benchmark plants its inputs and judges the program's outputs with these
functions, so none of them may share code with the module under test:

- ``single_edits``: the seven single-edit typo models, each as its own loop;
- ``osa``: optimal-string-alignment distance as a full dynamic-programming table;
- ``top_model``: the most specific model that turns a target into a variant;
- ``NearIndex``: a symmetric-deletion index that finds every stored label within
  ``k`` edits of a query without scanning the whole store.
"""

from __future__ import annotations

ETH_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"
ADAH_ALPHABET = ETH_ALPHABET + "_."

# Most specific first: a variant that several models produce is reported under
# the first of them.
PRIORITY = (
    "Duplication",
    "Swapping",
    "Substitution",
    "Removal",
    "Hyphenation",
    "Pluralization",
    "Addition",
)


def alphabet_for(namespace: str) -> str:
    return ADAH_ALPHABET if namespace == "adah" else ETH_ALPHABET


def _valid(label: str, target: str) -> bool:
    return bool(label) and label != target and label[0] != "-" and label[-1] != "-"


def single_edits(label: str, alphabet: str) -> dict[str, set[str]]:
    """Every valid single-edit variant of ``label`` -> the models that produce it."""
    out: dict[str, set[str]] = {}

    def put(variant: str, model: str) -> None:
        if _valid(variant, label):
            out.setdefault(variant, set()).add(model)

    n = len(label)
    for i in range(n):
        put(label[:i] + label[i] + label[i:], "Duplication")
    for i in range(n + 1):
        for ch in alphabet:
            put(label[:i] + ch + label[i:], "Addition")
    for i in range(n):
        put(label[:i] + label[i + 1 :], "Removal")
    for i in range(n - 1):
        put(label[:i] + label[i + 1] + label[i] + label[i + 2 :], "Swapping")
    for i in range(n):
        for ch in alphabet:
            put(label[:i] + ch + label[i + 1 :], "Substitution")
    for i in range(1, n):
        put(label[:i] + "-" + label[i:], "Hyphenation")
    if not label.endswith("s"):
        put(label + "s", "Pluralization")
    return out


def top_model(variant: str, target: str, alphabet: str) -> str | None:
    """Highest-priority model under which ``variant`` is a typo of ``target``."""
    models = single_edits(target, alphabet).get(variant)
    if not models:
        return None
    return next(m for m in PRIORITY if m in models)


def is_variant(variant: str, target: str, alphabet: str) -> bool:
    """True when the program's guard and detector should treat the pair as a typo."""
    return (
        osa(variant, target) == 1
        and _valid(variant, target)
        and all(ch in alphabet for ch in variant)
    )


def osa(a: str, b: str) -> int:
    """Optimal-string-alignment distance (adjacent transpositions cost 1)."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[-1][-1]


def _deletion_keys(label: str, k: int) -> set[str]:
    keys = {label}
    frontier = {label}
    for _ in range(k):
        frontier = {s[:i] + s[i + 1 :] for s in frontier for i in range(len(s))}
        keys |= frontier
    return keys


class NearIndex:
    """Labels stored under all their <=k-deletion keys.

    Each OSA edit (insert, delete, substitute, adjacent swap) costs at most one
    deletion on each side, so two labels within ``k`` edits always share a key;
    ``near`` then confirms each candidate with ``osa``.
    """

    def __init__(self, k: int = 1, labels=()):
        self.k = k
        self._keys: dict[str, list[str]] = {}
        for label in labels:
            self.add(label)

    def add(self, label: str) -> None:
        for key in _deletion_keys(label, self.k):
            self._keys.setdefault(key, []).append(label)

    def near(self, label: str) -> set[str]:
        """Stored labels within ``k`` edits of ``label`` (itself included if stored)."""
        found: set[str] = set()
        for key in _deletion_keys(label, self.k):
            found.update(self._keys.get(key, ()))
        return {s for s in found if osa(s, label) <= self.k}
