"""The seven single-edit typo models, their classifier, the edit-distance oracle,
and an index that finds a label's one-edit neighbours among stored names.

Every model produces labels exactly one optimal-string-alignment edit away from
the target: duplication, addition, removal, swapping, substitution, hyphenation,
and pluralization. All operations here except ``NameIndex.add`` are pure
functions.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple

from .corpus import Name

ETH_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"
ADAH_ALPHABET = ETH_ALPHABET + "_."


def alphabet_for_namespace(namespace: str) -> str:
    return ADAH_ALPHABET if namespace == "adah" else ETH_ALPHABET


class TypoModel(enum.Enum):
    DUPLICATION = "Duplication"
    ADDITION = "Addition"
    REMOVAL = "Removal"
    SWAPPING = "Swapping"
    SUBSTITUTION = "Substitution"
    HYPHENATION = "Hyphenation"
    PLURALIZATION = "Pluralization"

    # Members are singletons and compare by identity, so identity hashing agrees
    # with equality; it runs in C where Enum.__hash__ is a Python-level call.
    __hash__ = object.__hash__


# When one label arises under several models it is reported once, most specific
# model first.
MODEL_PRIORITY = (
    TypoModel.DUPLICATION,
    TypoModel.SWAPPING,
    TypoModel.SUBSTITUTION,
    TypoModel.REMOVAL,
    TypoModel.HYPHENATION,
    TypoModel.PLURALIZATION,
    TypoModel.ADDITION,
)


class TypoVariant(NamedTuple):
    """One typo variant of a target label under one model.

    A tuple: it unpacks and iterates as (target, variant_label, model,
    change_position) and compares equal to a plain 4-tuple of the same values.
    """

    target: Name
    variant_label: str
    model: TypoModel
    change_position: int  # 0-based index into the target label; len(label) for Pluralization


def _valid_label(label: str) -> bool:
    # Leading/trailing hyphens are invalid in all three namespaces.
    return bool(label) and not label.startswith("-") and not label.endswith("-")


def _mutations(label: str, model: TypoModel, alphabet: str) -> dict[str, int]:
    """Variant label -> change position for one model (first position wins).

    Positions are filled last to first, so a variant that several positions
    produce ends up with the smallest one. The target itself, the empty label
    and labels with a leading or trailing hyphen are dropped at the end.
    """
    out: dict[str, int] = {}
    n = len(label)
    if model is TypoModel.DUPLICATION:
        for i in reversed(range(n)):
            out[label[: i + 1] + label[i:]] = i
    elif model is TypoModel.ADDITION:
        for i in reversed(range(n + 1)):
            pre, suf = label[:i], label[i:]
            out.update({pre + ch + suf: i for ch in alphabet})
    elif model is TypoModel.REMOVAL:
        for i in reversed(range(n)):
            out[label[:i] + label[i + 1 :]] = i
    elif model is TypoModel.SWAPPING:
        for i in reversed(range(n - 1)):
            out[label[:i] + label[i + 1] + label[i] + label[i + 2 :]] = i
    elif model is TypoModel.SUBSTITUTION:
        for i in reversed(range(n)):
            pre, suf = label[:i], label[i + 1 :]
            out.update({pre + ch + suf: i for ch in alphabet})
    elif model is TypoModel.HYPHENATION:
        for i in reversed(range(1, n)):
            out[label[:i] + "-" + label[i:]] = i
    elif model is TypoModel.PLURALIZATION:
        if not label.endswith("s"):
            out[label + "s"] = n
    else:  # pragma: no cover
        raise ValueError(f"unknown model {model}")
    return {
        v: i for v, i in out.items() if v and v != label and v[0] != "-" and v[-1] != "-"
    }


def change_position(variant_label: str, target_label: str, model: TypoModel, alphabet: str = ETH_ALPHABET) -> int:
    """The change position ``generate`` reports for a variant of the target under one model.

    KeyError if the variant does not arise under that model. Only a character of
    the variant can be the one an edit put in, so the alphabet narrows to those.
    """
    alphabet = "".join(ch for ch in alphabet if ch in variant_label)
    return _mutations(target_label, model, alphabet)[variant_label]


def generate(target: Name, model: TypoModel, alphabet: str | None = None) -> set[TypoVariant]:
    """All registered-or-not variants of the target under one typo model."""
    if alphabet is None:
        alphabet = alphabet_for_namespace(target.namespace)
    # tuple.__new__ builds each variant in C; TypoVariant(...) would run the
    # Python-level __new__ that NamedTuple generates, once per variant.
    return {
        tuple.__new__(TypoVariant, (target, label, model, pos))
        for label, pos in _mutations(target.label, model, alphabet).items()
    }


def generate_all(target: Name, alphabet: str | None = None) -> set[TypoVariant]:
    """Union over all seven models, each label kept once under its priority model."""
    if alphabet is None:
        alphabet = alphabet_for_namespace(target.namespace)
    seen: dict[str, TypoVariant] = {}
    for model in MODEL_PRIORITY:
        for label, pos in _mutations(target.label, model, alphabet).items():
            if label not in seen:
                seen[label] = tuple.__new__(TypoVariant, (target, label, model, pos))
    return set(seen.values())


def classify(candidate_label: str, target_label: str, alphabet: str = ETH_ALPHABET) -> set[TypoModel]:
    """Every model under which candidate is a variant of target.

    Empty set means the candidate is not a single-typo variant under these
    models. Mirrors generate() exactly without materializing variant sets.
    """
    c, t = candidate_label, target_label
    models: set[TypoModel] = set()
    if c == t or not _valid_label(c):
        return models
    lc, lt = len(c), len(t)
    if lc == lt + 1:
        for i in range(lc):
            if c[:i] + c[i + 1 :] != t:
                continue
            ch = c[i]
            if ch in alphabet:
                models.add(TypoModel.ADDITION)
            if (i > 0 and c[i - 1] == ch) or (i + 1 < lc and c[i + 1] == ch):
                models.add(TypoModel.DUPLICATION)
            if ch == "-" and 1 <= i <= lt - 1:
                models.add(TypoModel.HYPHENATION)
        if c == t + "s" and not t.endswith("s"):
            models.add(TypoModel.PLURALIZATION)
    elif lc == lt - 1:
        if any(t[:i] + t[i + 1 :] == c for i in range(lt)):
            models.add(TypoModel.REMOVAL)
    elif lc == lt:
        diffs = [i for i in range(lt) if c[i] != t[i]]
        if len(diffs) == 1 and c[diffs[0]] in alphabet:
            models.add(TypoModel.SUBSTITUTION)
        if (
            len(diffs) == 2
            and diffs[1] == diffs[0] + 1
            and c[diffs[0]] == t[diffs[1]]
            and c[diffs[1]] == t[diffs[0]]
        ):
            models.add(TypoModel.SWAPPING)
    return models


def primary_model(models: Iterable[TypoModel]) -> TypoModel | None:
    """Highest-priority model of a classify() result, or None if empty."""
    present = set(models)
    for model in MODEL_PRIORITY:
        if model in present:
            return model
    return None


class NameIndex:
    """A set of Names that narrows a search for the stored names one edit from a given one.

    Each name is filed under its namespace, its label length ``n`` and each of
    two halves of its label: ``label[:n // 2]`` and ``label[n // 2 + 1:]``. One
    optimal-string-alignment edit (substitution, insertion, deletion or
    adjacent swap) leaves at least one half where it was: the prefix at the
    start of the edited label or the suffix at its end. The middle character
    belongs to neither half, so a swap across the split leaves one half whole.
    ``near`` therefore costs two dict lookups for each of the lengths n - 1, n
    and n + 1, however many names are stored.
    """

    def __init__(self, names: Iterable[Name] = ()):
        self._names: list[Name] = []  # in insertion order; the halves map to positions here
        self._labels: dict[str, set[str]] = {}  # namespace -> labels
        # Each half maps to the last position filed under it, and that position's
        # link to the one filed before it (-1 ends the chain). Flat int lists keep
        # the build to one pass with no per-key container for the collector to walk.
        self._prefixes: dict[tuple, int] = {}
        self._suffixes: dict[tuple, int] = {}
        self._prefix_links: list[int] = []
        self._suffix_links: list[int] = []
        for name in names:
            self.add(name)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[Name]:
        return iter(self._names)

    def __contains__(self, name: Name) -> bool:
        labels = self._labels.get(name.namespace)
        return labels is not None and name.label in labels

    def add(self, name: Name) -> None:
        """Store a name; a name already stored keeps its first position."""
        label, namespace = name.label, name.namespace
        labels = self._labels.get(namespace)
        if labels is None:
            labels = self._labels[namespace] = set()
        elif label in labels:
            return
        labels.add(label)
        pos = len(self._names)
        self._names.append(name)
        n = len(label)
        half = n // 2
        key = namespace, n, label[:half]
        self._prefix_links.append(self._prefixes.get(key, -1))
        self._prefixes[key] = pos
        key = namespace, n, label[half + 1 :]
        self._suffix_links.append(self._suffixes.get(key, -1))
        self._suffixes[key] = pos

    def near(self, name: Name) -> list[Name]:
        """Every stored name that may be one edit from ``name``, in insertion order.

        The result can hold names further away; the caller confirms each one.
        """
        label, namespace = name.label, name.namespace
        m = len(label)
        found: set[int] = set()
        for n in (m - 1, m, m + 1):
            half = n // 2
            pos = self._prefixes.get((namespace, n, label[:half]), -1)
            while pos >= 0:
                found.add(pos)
                pos = self._prefix_links[pos]
            pos = self._suffixes.get((namespace, n, label[m - n + half + 1 :]), -1)
            while pos >= 0:
                found.add(pos)
                pos = self._suffix_links[pos]
        return [self._names[pos] for pos in sorted(found)]


def damerau_distance(a: str, b: str) -> int:
    """Optimal-string-alignment Damerau-Levenshtein distance, unit costs."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev2: list[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                cur[j] = min(cur[j], prev2[j - 2] + 1)
        prev2, prev = prev, cur
    return prev[lb]
