"""Typo-guard traffic: users with skewed histories sending to a mix of recipients.

One round is a fixed list of requests, each planted to belong to exactly one
class, with the verdict the guard's documented precedence gives it:

  repeat         a name already in the user's history        -> Allow
  known_variant  a history name that is a typo of a popular   -> Allow (known-good wins)
  blocklisted    a blocklisted name                          -> Warn ColdBlocklist
  popular_typo   one edit from exactly one popular name      -> Warn ColdVariantOfPopular
  history_typo   one edit from exactly one of the user's own
                 history names and two from every popular    -> Warn WarmVariantOfHistory
  clean          two edits from every popular and history name -> Allow

Every allowed send is recorded in the history, so later requests of the round
see the names earlier ones added; the plan accounts for that. Each round starts
again from the same base histories, so every round does the same work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import oracle
from fixtures import display, label_of, word

CLASSES = ("repeat", "known_variant", "blocklisted", "popular_typo", "history_typo", "clean")
# Shares of a round. No source gives the mix of recipients a wallet sees, so
# the shares are an assumption: each of the guard's five documented outcomes
# (history hit, blocklist hit, popular variant, history variant, clean) takes a
# fifth of the requests, and the history hit's fifth is split evenly between
# plain repeats and the known-good precedence case.
SHARES = {"repeat": 0.10, "known_variant": 0.10, "blocklisted": 0.20,
          "popular_typo": 0.20, "history_typo": 0.20, "clean": 0.20}
UD_TLDS = ("crypto", "nft", "x", "wallet")
BASE_TIME = "2023-01-01T00:00:00+00:00"


def namespace_mix(i: int) -> str:
    """Seven in ten names are ENS, two UD, one an ADA Handle."""
    slot = i % 10
    if slot < 7:
        return "eth"
    if slot < 9:
        return "ud:" + UD_TLDS[(i // 10) % len(UD_TLDS)]
    return "adah"


@dataclass
class Request:
    user: int
    display: str
    namespace: str
    cls: str
    decision: str  # "Allow" or "Warn"
    reason: str
    match: str | None = None
    model: str | None = None


@dataclass
class Scenario:
    popular: list[str]
    blocklist: list[str]
    histories: list[list[dict]]  # base history records per user
    requests: list[Request] = field(default_factory=list)


class _Planner:
    def __init__(self, rng: random.Random, popular: list[tuple[str, str]], blocklist: list[tuple[str, str]]):
        self.rng = rng
        self.popular = popular
        self.by_display = sorted(popular, key=lambda p: display(*p))
        self.pop_labels = {label for label, _ in popular}
        self.pop_index = oracle.NearIndex(1, self.pop_labels)
        self.blocked = {display(label, ns): ns for label, ns in blocklist}
        self.used = set(self.pop_labels) | {label for label, _ in blocklist}
        self.names: list[list[tuple[str, str]]] = []  # base history (label, ns) per user
        self.known: list[list[tuple[str, str]]] = []  # history names that are popular typos
        self.in_history: list[set[str]] = []  # displays, base plus sends of this round
        self.user_index: list[oracle.NearIndex] = []
        self.n_fresh = 0

    def fresh(self, ns: str) -> str:
        """A new label two edits from every popular name; lengths cycle 6..12."""
        length = 6 + self.n_fresh % 7
        self.n_fresh += 1
        while True:
            if ns == "adah" and self.rng.random() < 0.5:
                left = self.rng.randint(3, length - 3)
                label = word(self.rng, left) + self.rng.choice("_.") + word(self.rng, length - left - 1)
            else:
                label = word(self.rng, length)
            if label not in self.used and not self.pop_index.near(label):
                self.used.add(label)
                return label

    def typo_of(self, label: str, ns: str) -> str:
        return self.rng.choice(sorted(oracle.single_edits(label, oracle.alphabet_for(ns))))

    def add_user(self, size: int, with_known: bool) -> None:
        names = [(self.fresh(ns), ns) for ns in map(namespace_mix, range(size))]
        known = []
        while with_known and len(known) < 2:
            label, ns = self.popular[self.rng.randrange(len(self.popular))]
            typo = self.typo_of(label, ns)
            if typo not in self.used and display(typo, ns) not in self.blocked:
                self.used.add(typo)
                known.append((typo, ns))
        self.names.append(names)
        self.known.append(known)
        self.in_history.append({display(label, ns) for label, ns in names + known})
        self.user_index.append(oracle.NearIndex(1, [label for label, _ in names + known]))

    def plan(self, u: int, cls: str, rank: float) -> Request:
        """One request of class ``cls`` for user ``u``; ``rank`` in [0, 1) picks
        the popular name a popular typo is made from, in display order."""
        rng = self.rng
        if cls == "repeat":
            label, ns = rng.choice(self.names[u])
            return Request(u, display(label, ns), ns, cls, "Allow", "None")
        if cls == "known_variant":
            label, ns = rng.choice(self.known[u])
            return Request(u, display(label, ns), ns, cls, "Allow", "None")
        if cls == "blocklisted":
            name = rng.choice(sorted(self.blocked))
            return Request(u, name, self.blocked[name], cls, "Warn", "ColdBlocklist")
        if cls == "clean":
            ns = namespace_mix(self.n_fresh)
            while True:
                label = self.fresh(ns)
                if not self.user_index[u].near(label):
                    break
            self.user_index[u].add(label)
            self.in_history[u].add(display(label, ns))
            return Request(u, display(label, ns), ns, cls, "Allow", "None")
        if cls == "popular_typo":
            base_label, ns = self.by_display[int(rank * len(self.by_display))]
            allowed_near = {base_label}
            reason = "ColdVariantOfPopular"
        else:
            base_label, ns = rng.choice(self.names[u])
            allowed_near = set()
            reason = "WarmVariantOfHistory"
        while True:
            typo = self.typo_of(base_label, ns)
            name = display(typo, ns)
            if (
                typo in self.pop_labels
                or name in self.blocked
                or name in self.in_history[u]
                or self.pop_index.near(typo) != allowed_near
                or self.user_index[u].near(typo) != ({base_label} - allowed_near)
            ):
                continue
            model = oracle.top_model(typo, base_label, oracle.alphabet_for(ns))
            return Request(u, name, ns, cls, "Warn", reason, display(base_label, ns), model)


def history_sizes(n_users: int, smallest: int, largest: int) -> list[int]:
    """Geometric spread from ``smallest`` to ``largest`` entries."""
    return [round(smallest * (largest / smallest) ** (u / (n_users - 1))) for u in range(n_users)]


def build(
    rng: random.Random,
    popular: list[tuple[str, str]],
    blocklist: list[tuple[str, str]],
    n_users: int,
    history_range: tuple[int, int],
    n_requests: int,
) -> Scenario:
    """Plan one round of requests against the given popular list and blocklist."""
    planner = _Planner(rng, popular, blocklist)
    for u, size in enumerate(history_sizes(n_users, *history_range)):
        planner.add_user(size, with_known=u % 3 == 0)
    # The order of classes and users is fixed; the seed picks only the names.
    # Each class is spread evenly over the round, and users take turns with a
    # stride coprime to their number, so every seed does the same kind of work
    # in the same order.
    counts = {c: round(SHARES[c] * n_requests) for c in CLASSES}
    classes = [c for _, _, c in sorted(((j + 0.5) / n, k, c) for k, (c, n) in enumerate(counts.items())
                                       for j in range(n))]
    stride = next(p for p in (7, 11, 13, 17, 19) if n_users % p)
    known_users = range(0, n_users, 3)
    n_typos = counts["popular_typo"]
    scenario = Scenario(
        popular=[display(label, ns) for label, ns in popular],
        blocklist=sorted(planner.blocked),
        histories=[
            [
                {"display": display(label, ns), "first_used": BASE_TIME, "last_used": BASE_TIME, "send_count": 1}
                for label, ns in planner.names[u] + planner.known[u]
            ]
            for u in range(n_users)
        ],
    )
    # Popular typos are spread evenly over the display-sorted popular list so the
    # cost of finding their match is the same from seed to seed.
    seen = {c: 0 for c in CLASSES}
    for i, cls in enumerate(classes):
        if cls == "known_variant":
            u = known_users[(seen[cls] * stride) % len(known_users)]
        else:
            u = (i * stride) % n_users
        rank = (seen[cls] + rng.random()) / n_typos if cls == "popular_typo" else 0.0
        seen[cls] += 1
        scenario.requests.append(planner.plan(u, cls, rank))
    return scenario


def popular_names(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """``n`` distinct popular labels with fixed lengths and namespace mix."""
    seen: set[str] = set()
    out = []
    for i in range(n):
        while True:
            label = word(rng, 6 + i % 7)
            if label not in seen:
                break
        seen.add(label)
        out.append((label, namespace_mix(i)))
    return out


def blocklist_for(rng: random.Random, popular: list[tuple[str, str]], n: int) -> list[tuple[str, str]]:
    """``n`` known squats: typos of popular names that are not popular themselves."""
    labels = {label for label, _ in popular}
    out: list[tuple[str, str]] = []
    while len(out) < n:
        label, ns = popular[rng.randrange(len(popular))]
        typo = rng.choice(sorted(oracle.single_edits(label, oracle.alphabet_for(ns))))
        if typo not in labels:
            labels.add(typo)
            out.append((typo, ns))
    return out


def check_cli_verdict(req: Request, stdout: str) -> list[str]:
    """Compare the JSON line that ``bnsquat guard-check`` printed with the plan."""
    got = json.loads(stdout.strip().splitlines()[-1])
    want = {"decision": req.decision.upper(), "reason": req.reason,
            "matched_target": req.match, "model": req.model, "recipient": req.display}
    return [] if got == want else [f"guard-check {req.display} ({req.cls}): {got} != {want}"]


def planned(req: Request) -> tuple:
    """The (decision, reason, matched display, model) the plan gives a request."""
    return (req.decision, req.reason, req.match, req.model)


def check_verdicts(scenario: Scenario, verdicts: list[tuple]) -> list[str]:
    """Compare (decision, reason, matched display, model) tuples with the plan.

    Beyond equality, every matched name must be one edit from the recipient and
    sit in the list its reason names.
    """
    errors = []
    popular = set(scenario.popular)
    histories = [{h["display"] for h in hist} for hist in scenario.histories]
    for req, got in zip(scenario.requests, verdicts):
        if req.decision == "Allow":
            histories[req.user].add(req.display)
        want = planned(req)
        if tuple(got) != want:
            errors.append(f"guard: {req.display} ({req.cls}, user {req.user}) got {got}, want {want}")
            continue
        match = got[2]
        if match is None:
            continue
        listed = popular if req.reason == "ColdVariantOfPopular" else histories[req.user]
        if match not in listed:
            errors.append(f"guard: matched {match} for {req.display} is not in the {req.reason} list")
        if not oracle.is_variant(label_of(req.display, req.namespace), label_of(match, req.namespace),
                                 oracle.alphabet_for(req.namespace)):
            errors.append(f"guard: matched {match} is not one edit from {req.display}")
    if len(verdicts) != len(scenario.requests):
        errors.append(f"guard: {len(verdicts)} verdicts for {len(scenario.requests)} requests")
    return errors
