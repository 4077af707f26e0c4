#!/usr/bin/env python3
"""bnsquat benchmark: two study pipelines and a typo-guard serving mix.

Usage (from the repository root):

    python3 perfbench/run.py --workload ens-ud-crosstld --seed 1 --seconds 20 --trace 0

Each run builds its inputs from the seed, sets the program up, then replays
the same round, from the same state, while another fits in ``--seconds`` (at
least three times). After each round, and in the time left after the last, the
wallet requests whose fastest check is slowest so far are replayed again: the
99th percentile rests on a few requests, and a few replays of each leave it
far above where more replays settle. Every figure is taken from the fastest
replay of each command and each request: the shared host has slow phases that
slow everything by up to half, and the fastest replay is the one they did not
touch. A wallet request is timed by its thread's CPU time (see TIMES). Every
round's outputs are checked against the planted truth and the benchmark's own
oracle.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
first round runs untraced and the rest with spans around every module, and the
metrics are the per-module ones plus the tracing overhead.

The program is driven only through its public surface: CLI stage processes,
one at a time, and in-process calls to ``typoguard.check`` and
``typoguard.record_send`` as a wallet would make them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import fixtures
import guardload
import tracing
from setup_stage import process_age

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ens-ud-crosstld", "ada-utxo", "guard-mixed")
DEADLINE_S = 170.0  # a run must end within 180 s; no round starts past this
MIN_TAIL = 10  # samples that must lie beyond the reported 99th percentile

MIN_ROUNDS = 3  # every figure is the fastest of at least this many replays
# setup_s is the fastest of this many cold set-ups, each in a fresh process.
SETUP_REPLAYS = 5
# Requests per round: enough for ten beyond the 99th percentile.
REQUESTS = 1100
# Every TAIL_EVERY_S of a wallet loop, and after each round, the TAIL_REPLAYS
# requests whose fastest check is slowest so far are checked again. The 99th
# percentile rests on a few requests; a few replays of each, taken at the same
# few moments, leave it far above where more replays settle, and a slow phase
# of the host that covers those moments moves it far more than the median.
# A replay inside a wallet loop is followed by at least three times its own
# length of the loop, so such replays take at most a quarter of it.
TAIL_REPLAYS = REQUESTS // 50
TAIL_EVERY_S = 1.5
# Per request: the check's CPU time, the CPU time of the check and its send,
# and the check's wall time. The latency metrics use the CPU time of the
# calling thread. check runs on that thread alone and waits on nothing, so on
# an idle core the two clocks agree; on a shared host the CPU time leaves out
# the stretches in which the thread was not running, which otherwise land on
# the longest checks, the ones the 99th percentile rests on. The wall time
# keeps that claim checked (WAIT_RATIO).
TIMES = ("lat", "service", "wall")
# A run reports an error if, over its requests, the median of fastest wall time
# over fastest CPU time exceeds this: the check then waits on something, and
# its CPU time would understate its latency.
WAIT_RATIO = 1.5
# guard-mixed: the paper's top-10k target set, known squats, skewed histories.
GUARD_POPULAR = 10_000
GUARD_BLOCKLIST = 500
GUARD_USERS = 150
GUARD_HISTORY = (5, 1000)
# A guard round is long (the wallet loop takes most of it), so each
# guard-check command runs twice per round to get as many replays as the
# pipelines' stage commands.
CLI_REPLAYS = 2
# The pipelines' wallet phase: their own published lists, fewer users.
PIPE_USERS = 12
PIPE_HISTORY = (5, 200)

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "detect_s": "s",
    "peak_rss_mb": "MB",
    "check_p50_ms": "ms",
    "check_p99_ms": "ms",
    "checks_per_s": "1/s",
}


class Run:
    """State shared by every workload: the work directory, operation counts, errors."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.work = OUT / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0
        self.spans: list[dict] = []  # spans of the traced stage processes of this round
        self.n_proc = 0
        self.replayed = 0  # checks made again by replay_tail
        self.tail = None  # called every TAIL_EVERY_S of a wallet loop, outside its timing

    def cold_setup(self, scenario, data: Path) -> float:
        """The wallet's cold set-up on ``data``, in a fresh process; returns its seconds."""
        self.attempted += 1
        try:
            proc = subprocess.run([sys.executable, str(HERE / "setup_stage.py"), str(data)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, DEADLINE_S - process_age()))
        except subprocess.TimeoutExpired:
            raise SystemExit("error: the wallet's set-up did not end before the run's deadline")
        if proc.returncode != 0:
            raise SystemExit(f"error: the wallet's set-up exited {proc.returncode}: {proc.stderr[-300:]}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {"popular": len(set(scenario.popular)), "blocklist": len(set(scenario.blocklist)),
                "histories": len(scenario.histories), "requests": len(scenario.requests)}
        if any(got[k] != v for k, v in want.items()):
            self.errors.append(f"set-up loaded {got}, want {want}")
        return got["setup_s"]

    def cli(self, argv: list[str], traced: bool) -> tuple[float | None, str]:
        """Run one CLI command to its end; returns (wall seconds or None if it failed, stdout)."""
        self.n_proc += 1
        log = self.work / f"cmd{self.n_proc}"
        spans = log.with_suffix(".spans")
        if traced:
            cmd = [sys.executable, str(HERE / "traced_stage.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "bnsquat.cli", *argv]
        self.attempted += 1
        with open(log.with_suffix(".out"), "w") as out, open(log.with_suffix(".err"), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, DEADLINE_S - process_age()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if traced and spans.exists():
            for line in spans.read_text().splitlines():
                self.spans.append(dict(json.loads(line), proc=f"p{self.n_proc}"))
        if proc.returncode != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]} exited {proc.returncode}: {log.with_suffix('.err').read_text()[-300:]}")
            return None, ""
        return wall, log.with_suffix(".out").read_text()

    def serve(self, scenario, names, popular, blocklist, histories) -> dict[str, list]:
        """One wallet client, closed loop, no think time: check, then send if allowed.

        Returns each of TIMES per request, None where the request raised.
        """
        from bnsquat import typoguard

        verdicts, times = [], {k: [] for k in TIMES}
        gc.collect()  # every round starts from the same collector state
        due = time.perf_counter() + TAIL_EVERY_S
        for req, name in zip(scenario.requests, names):
            if self.tail is not None and time.perf_counter() >= due:
                t0 = time.perf_counter()
                self.tail()
                t1 = time.perf_counter()
                due = t1 + max(TAIL_EVERY_S, 3 * (t1 - t0))
            try:
                verdict, took = timed_send(typoguard, histories[req.user], blocklist, popular, name)
            except Exception as exc:  # counted as a failed operation; the loop goes on
                self.failed += 1
                self.errors.append(f"check {req.display}: {exc!r}")
                verdict, took = None, (None,) * len(TIMES)
            verdicts.append(verdict)
            for k, v in zip(TIMES, took):
                times[k].append(v)
        self.attempted += len(scenario.requests)
        self.errors += guardload.check_verdicts(scenario, [verdict_key(v) if v else None for v in verdicts])
        return times

    def replay_tail(self, workload, best: dict[str, list]) -> None:
        """Replay the TAIL_REPLAYS requests whose fastest check is slowest so far.

        Only a user's own earlier requests change the history a request is
        checked against. So the user of each chosen request replays their
        requests of the round from the base history, up to the last chosen one,
        sending where the guard allows: every check runs in the state it had in
        the round, and ``best`` keeps each replayed request's fastest of each of
        TIMES. These repeat requests that the rounds attempted and count as no
        new operations; a verdict that differs from the plan is an error.
        """
        from bnsquat import typoguard

        scenario, names, lat = workload.scenario, workload.names, best["lat"]
        done = sorted((j for j, v in enumerate(lat) if v is not None), key=lat.__getitem__)
        last: dict[int, int] = {}
        for j in done[-TAIL_REPLAYS:]:
            user = scenario.requests[j].user
            last[user] = max(last.get(user, j), j)
        by_user: dict[int, list[int]] = {}
        for j, req in enumerate(scenario.requests):
            by_user.setdefault(req.user, []).append(j)
        for user, end in sorted(last.items()):
            history = typoguard.GuardHistory.load(scenario.histories[user])
            for j in by_user[user]:
                if j > end:
                    break
                req = scenario.requests[j]
                self.replayed += 1
                try:
                    verdict, took = timed_send(typoguard, history, workload.blocklist, workload.popular, names[j])
                except Exception as exc:  # the round counted it if it failed there too
                    if lat[j] is not None:
                        self.errors.append(f"replay of check {req.display}: {exc!r}")
                    continue
                if verdict_key(verdict) != guardload.planned(req):
                    self.errors.append(f"replay of check {req.display} ({req.cls}): got {verdict_key(verdict)}")
                if lat[j] is not None:
                    for k, v in zip(TIMES, took):
                        best[k][j] = min(best[k][j], v)


def timed_send(guard, history, blocklist, popular, name) -> tuple:
    """One wallet request: check, then record the send if the guard allows it.

    Returns the verdict and its TIMES: the check's CPU time, the CPU time of
    the check and the send, and the check's wall time.
    """
    w0, c0 = time.perf_counter(), time.thread_time()
    verdict = guard.check(history, blocklist, popular, name)
    c1, w1 = time.thread_time(), time.perf_counter()
    if verdict.decision is guard.Decision.ALLOW:
        guard.record_send(history, name)
    return verdict, (c1 - c0, time.thread_time() - c0, w1 - w0)


def verdict_key(v) -> tuple:
    """(decision, reason, matched display, model) of a guard verdict."""
    return (v.decision.value, v.reason.value,
            v.matched_target.display if v.matched_target else None, v.model.value if v.model else None)


def load_lists(popular_path: Path, blocklist_path: Path):
    from bnsquat import typoguard

    with open(popular_path) as fh:
        popular = typoguard.load_name_list(fh)
    with open(blocklist_path) as fh:
        blocklist = typoguard.load_name_list(fh)
    return popular, blocklist


def fresh_histories(scenario):
    from bnsquat import typoguard

    return [typoguard.GuardHistory.load(records) for records in scenario.histories]


def normalized(scenario):
    from bnsquat.corpus import normalize_name

    return [normalize_name(r.display, r.namespace) for r in scenario.requests]


def write_wallet_inputs(scenario, data: Path) -> None:
    """The lists, base histories and request names that a wallet sets up from."""
    data.mkdir(parents=True, exist_ok=True)
    (data / "popular.txt").write_text("".join(d + "\n" for d in scenario.popular))
    (data / "blocklist.txt").write_text("".join(d + "\n" for d in scenario.blocklist))
    (data / "histories.jsonl").write_text("".join(json.dumps(h) + "\n" for h in scenario.histories))
    (data / "requests.jsonl").write_text(
        "".join(json.dumps({"display": r.display, "namespace": r.namespace}) + "\n" for r in scenario.requests))


def freeze_harness() -> None:
    """Keep the benchmark's own objects (fixtures, planted truth, request plan)
    out of the collector's scans. Called before the program loads its lists
    and histories, so the program's heap is scanned as it would be in a wallet."""
    gc.collect()
    gc.freeze()


# --- workloads ----------------------------------------------------------------
#
# A round returns {"cmd": [wall of each CLI command, None if it failed],
#                  and per request each of TIMES, None if the request failed}.
# Every round does the same work from the same state, so a figure can be taken
# from the fastest replay of each command and each request.


class Pipeline:
    """ingest -> score -> detect --cross-tld -> analyze-tx -> report, then a
    wallet checking sends against the lists the pipeline published."""

    DETECT = 2  # index of the detect command in a round

    def __init__(self, run: Run):
        self.run = run
        self.data = run.work / "fixtures"
        self.planted = fixtures.build(run.workload, run.seed, self.data)
        self.popular = self.blocklist = None  # the lists the last round published
        ns_of = self.planted.namespace_of
        targets = [(fixtures.label_of(d, ns_of[d]), ns_of[d]) for d in sorted(self.planted.targets)]
        squats = [(fixtures.label_of(d, ns_of[d]), ns_of[d])
                  for c in self.planted.clusters.values() for d in sorted(c["squats"])]
        rng = random.Random(f"{run.workload}:guard:{run.seed}")
        self.scenario = guardload.build(rng, targets, squats, PIPE_USERS, PIPE_HISTORY, REQUESTS)
        self.wallet = run.work / "wallet"
        write_wallet_inputs(self.scenario, self.wallet)
        self.names = normalized(self.scenario)
        freeze_harness()

    def round(self, traced: bool) -> dict:
        run, out = self.run, self.run.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        stages = [
            ["ingest", "--data-dir", str(self.data)],
            ["score", "--top-n", str(fixtures.n_targets(run.workload))],
            ["detect", "--cross-tld"],
            ["analyze-tx"],
            ["report"],
        ]
        walls = []
        for stage, *rest in stages:
            wall, _ = run.cli([stage, "--out", str(out), *rest], traced)
            walls.append(wall)
            if wall is None:  # later stages lack their input: count them failed too
                missed = len(stages) - len(walls) + len(self.scenario.requests)
                run.attempted += missed
                run.failed += missed
                walls += [None] * (len(stages) - len(walls))
                return {"cmd": walls, **{k: [None] * len(self.scenario.requests) for k in TIMES}}
        run.errors += checks.check_pipeline(out, self.planted)
        # The wallet loads the published target list as its popular list and the
        # detected squats as its blocklist.
        (out / "popular.txt").write_text(
            "".join(t["display"] + "\n" for t in json.loads((out / "score" / "targets.json").read_text())))
        (out / "blocklist.txt").write_text("".join(
            s["display"] + "\n"
            for line in (out / "detect" / "clusters.jsonl").read_text().splitlines()
            for s in json.loads(line)["squats"]))
        self.popular, self.blocklist = load_lists(out / "popular.txt", out / "blocklist.txt")
        times = run.serve(self.scenario, self.names, self.popular, self.blocklist, fresh_histories(self.scenario))
        return {"cmd": walls, **times}


class GuardMixed:
    """A wallet serving many users against a 10k popular list and a blocklist.

    Each round also runs ``guard-check`` for one request of each class, the CLI
    a wallet backend shells out to; those commands are this workload's
    pipeline, and the one on a popular-list typo is its detect command.
    """

    DETECT = guardload.CLASSES.index("popular_typo")

    def __init__(self, run: Run):
        self.run = run
        rng = random.Random(f"guard-mixed:{run.seed}")
        popular = guardload.popular_names(rng, GUARD_POPULAR)
        blocklist = guardload.blocklist_for(rng, popular, GUARD_BLOCKLIST)
        self.scenario = guardload.build(rng, popular, blocklist, GUARD_USERS, GUARD_HISTORY, REQUESTS)
        self.wallet = run.work / "wallet"
        write_wallet_inputs(self.scenario, self.wallet)
        self.popular_path = self.wallet / "popular.txt"
        self.blocklist_path = self.wallet / "blocklist.txt"
        self.cli_requests = []
        for cls in guardload.CLASSES:
            req = next(r for r in self.scenario.requests if r.cls == cls)
            history = run.work / f"history-{req.user}.jsonl"
            history.write_text("".join(json.dumps(h) + "\n" for h in self.scenario.histories[req.user]))
            self.cli_requests.append((req, history))
        self.names = normalized(self.scenario)
        freeze_harness()
        self.popular, self.blocklist = load_lists(self.popular_path, self.blocklist_path)

    def round(self, traced: bool) -> dict:
        run = self.run
        walls = []
        for req, history in self.cli_requests:
            replays = []
            for _ in range(CLI_REPLAYS):
                wall, stdout = run.cli(
                    ["guard-check", "--popular", str(self.popular_path), "--blocklist", str(self.blocklist_path),
                     "--history", str(history), "--recipient", req.display], traced)
                replays.append(wall)
                if wall is not None:
                    run.errors += guardload.check_cli_verdict(req, stdout)
            walls.append(min((w for w in replays if w is not None), default=None))
        times = run.serve(self.scenario, self.names, self.popular, self.blocklist, fresh_histories(self.scenario))
        return {"cmd": walls, **times}


# --- measurement ----------------------------------------------------------------


def fastest(values) -> float:
    """The fastest replay of one unit of work; slower replays met a busy host."""
    done = [v for v in values if v is not None]
    if not done:
        raise SystemExit(f"error: no replay of a unit of work succeeded ({len(values)} attempted)")
    return min(done)


def faster(a: float | None, b: float | None) -> float | None:
    return b if a is None else a if b is None else min(a, b)


def round_wall(result: dict) -> float:
    """A round's timed work: its CLI commands' wall time and its requests' service time."""
    return sum(w for w in result["cmd"] + result["service"] if w is not None)


def measure(run: Run, workload, seconds: float) -> dict[str, float]:
    """Untraced rounds and tail replays for ``seconds``; returns the end-to-end metrics."""
    setup_s = min(run.cold_setup(workload.scenario, workload.wallet) for _ in range(SETUP_REPLAYS))
    rounds = []
    best: dict[str, list] = {k: [None] * len(workload.scenario.requests) for k in TIMES}
    run.tail = lambda: run.replay_tail(workload, best)
    start = time.perf_counter()
    took = 0.0  # seconds of the last round and the tail replay after it
    # A round starts only if one more fits in the time left; the rest of the
    # time replays the slowest requests again.
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + took < seconds:
        if process_age() > DEADLINE_S:
            run.errors.append(f"deadline reached after {len(rounds)} rounds")
            break
        t0 = time.perf_counter()
        rounds.append(workload.round(traced=False))
        for k in TIMES:
            best[k] = list(map(faster, best[k], rounds[-1][k]))
        run.tail()
        took = time.perf_counter() - t0
    while time.perf_counter() - start < seconds and process_age() <= DEADLINE_S:
        run.tail()
    cmd = [fastest([r["cmd"][i] for r in rounds]) for i in range(len(rounds[0]["cmd"]))]
    lat, service, wall = (best[k] for k in TIMES)
    if None in lat:
        raise SystemExit(f"error: some request failed in every one of {len(rounds)} rounds")
    wait_ratio = statistics.median(w / c for w, c in zip(wall, lat) if c > 0)
    if wait_ratio > WAIT_RATIO:
        run.errors.append(f"a check's fastest wall time is a median {wait_ratio:.2f} times its CPU time")
    p99 = statistics.quantiles(lat, n=100)[98]
    beyond = sum(1 for v in lat if v > p99)
    print(f"rounds: {len(rounds)}, requests per round: {len(lat)}, beyond p99: {beyond}, "
          f"checks replayed for the tail: {run.replayed}")
    print(f"check wall time over CPU time, median: {wait_ratio:.3f}; wall-clock p50 "
          f"{statistics.median(wall) * 1e3:.4f} ms, p99 {statistics.quantiles(wall, n=100)[98] * 1e3:.4f} ms")
    print("round times: " + " ".join(f"{round_wall(r):.3f}" for r in rounds))
    if beyond < MIN_TAIL:
        run.errors.append(f"only {beyond} requests beyond the 99th percentile")
    return {
        "setup_s": setup_s,
        "pipeline_s": sum(cmd),
        "detect_s": cmd[workload.DETECT],
        "peak_rss_mb": run.peak_rss_mb,
        "check_p50_ms": statistics.median(lat) * 1e3,
        "check_p99_ms": p99 * 1e3,
        "checks_per_s": len(service) / sum(service),
    }


def traced(run: Run, make_workload, seconds: float) -> dict[str, float]:
    """Untraced and traced rounds in turn until ``seconds`` have passed.

    Returns the per-module metrics (each the fastest traced round's value) and
    the tracing overhead: fastest traced round minus fastest untraced round.
    """
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    workload = make_workload(run)
    tracer.restore()
    trace_log = [dict(s, proc="main", round="setup") for s in tracer.take()]
    walls = {False: [], True: []}
    rounds = []
    start = time.perf_counter()
    while len(walls[True]) < 2 or time.perf_counter() - start < seconds:
        if process_age() > DEADLINE_S:
            run.errors.append(f"deadline reached after {len(rounds)} traced rounds")
            break
        with_spans = len(walls[False]) > len(walls[True])
        run.spans = []
        if with_spans:
            tracing.instrument(tracer)
        try:
            result = workload.round(traced=with_spans)
        finally:
            tracer.restore()
        walls[with_spans].append(round_wall(result))
        if with_spans:
            spans = run.spans + [dict(s, proc="main") for s in tracer.take()]
            trace_log += [dict(s, round=len(rounds)) for s in spans]
            rounds.append(spans)
    with open(run.work / "trace.jsonl", "w") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in trace_log)
    metrics = tracing.per_layer_metrics(rounds)
    untraced, with_trace = min(walls[False]), min(walls[True])
    metrics["trace.overhead_s"] = with_trace - untraced
    metrics["trace.overhead_share"] = (with_trace - untraced) / untraced
    print(f"rounds: {len(walls[False])} untraced (fastest {untraced:.3f} s), "
          f"{len(walls[True])} traced (fastest {with_trace:.3f} s)")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bnsquat" / "cli.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'bnsquat'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    make_workload = GuardMixed if args.workload == "guard-mixed" else Pipeline
    if args.trace:
        metrics = traced(run, make_workload, args.seconds)
        units = tracing.units()
    else:
        metrics = measure(run, make_workload(run), args.seconds)
        units = END_TO_END
    for err in run.errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
