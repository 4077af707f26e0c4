"""Cold set-up of a wallet's typo guard, timed from this process's start.

Usage: python3 setup_stage.py DIR

DIR holds popular.txt and blocklist.txt (one display per line),
histories.jsonl (one JSON list of history records per user) and
requests.jsonl (one {"display", "namespace"} per request). The process imports
the guard, loads both lists and every user's history, normalises every request
name, and prints the seconds from its own start to the end of that set-up.
Nothing of the benchmark is imported before the set-up ends, so the figure
holds only the interpreter's start and the program's own set-up.
"""

import os
import sys
import time


def process_age() -> float:
    """Seconds since this process started, read from the kernel's record."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def main(data: str) -> int:
    import json

    from bnsquat import typoguard
    from bnsquat.corpus import normalize_name

    with open(os.path.join(data, "popular.txt")) as fh:
        popular = typoguard.load_name_list(fh)
    with open(os.path.join(data, "blocklist.txt")) as fh:
        blocklist = typoguard.load_name_list(fh)
    with open(os.path.join(data, "histories.jsonl")) as fh:
        histories = [typoguard.GuardHistory.load(json.loads(line)) for line in fh]
    with open(os.path.join(data, "requests.jsonl")) as fh:
        names = [normalize_name(r["display"], r["namespace"]) for r in map(json.loads, fh)]
    age = process_age()
    print(json.dumps({"setup_s": age, "popular": len(popular), "blocklist": len(blocklist),
                      "histories": len(histories), "requests": len(names)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
