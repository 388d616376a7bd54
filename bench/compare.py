"""Compare two result files written by ``bench/run.py`` (all workloads).

    python3 bench/compare.py bench/out/parent.json bench/out/change.json

Per workload, one row per end-to-end metric with its direction and
bound applied to the medians: ``regressed`` when B is worse than A by
more than the bound, ``unresolved`` -- not ``unchanged`` -- when either
file's run-to-run spread (interquartile range over median) is wider
than the bound or was never measured, otherwise ``improved`` or
``unchanged``.  Exits 1 on a regression or on a higher failed share.
"""

from __future__ import annotations

import json
import sys


def spread(metric: dict):
    """Interquartile range as a share of the median; None if unknown."""
    if metric["q1"] is None or not metric["median"]:
        return None
    return (metric["q3"] - metric["q1"]) / abs(metric["median"])


def verdict(before: dict, after: dict) -> tuple:
    """``(worsening as a share of A's median, spread, verdict)``."""
    bound = before["bound"]
    change = (after["median"] - before["median"]) / abs(before["median"])
    worse = change if before["better"] == "lower" else -change
    spreads = [spread(before), spread(after)]
    widest = None if None in spreads else max(spreads)
    if worse > bound:
        word = "regressed"
    elif widest is None or widest > bound:
        word = "unresolved"
    elif worse < -bound:
        word = "improved"
    else:
        word = "unchanged"
    return worse, widest, word


def compare(before: dict, after: dict) -> int:
    status = 0
    print(
        f"{'workload':16s} {'metric':18s} {'A':>12s} {'B':>12s} "
        f"{'unit':6s} {'worse by':>9s} {'bound':>6s} {'spread':>7s} verdict"
    )
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name)
        if new is None:
            print(f"{name:16s} missing from B")
            status = 1
            continue
        for metric, a in old["metrics"].items():
            b = new["metrics"].get(metric)
            if a["bound"] is None or b is None:
                continue  # per-layer metrics carry no bound
            worse, widest, word = verdict(a, b)
            if word == "regressed":
                status = 1
            shown = "-" if widest is None else f"{widest:7.3f}"
            print(
                f"{name:16s} {metric:18s} {a['median']:12.5g} "
                f"{b['median']:12.5g} {a['unit']:6s} {worse:+9.3f} "
                f"{a['bound']:6.2f} {shown:>7s} {word}"
            )
        failed_before = old["failed"] / max(1, old["attempted"])
        failed_after = new["failed"] / max(1, new["attempted"])
        if failed_after > failed_before:
            status = 1
            print(
                f"{name:16s} failed share rose "
                f"{failed_before:.4f} -> {failed_after:.4f}"
            )
    return status


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = []
    for path in paths:
        with open(path) as stream:
            loaded.append(json.load(stream))
    for label, data in zip("AB", loaded):
        env = data["envelope"] or {}
        print(
            f"{label}: rev {env.get('git_rev')} seed {env.get('seed')} "
            f"x{env.get('repetitions')} on {env.get('cpu')} "
            f"({env.get('nproc')} cores), kernels "
            f"{env.get('kernels_backend')}"
        )
    return compare(*loaded)


if __name__ == "__main__":
    sys.exit(main())
