"""Run one efp CLI stage in this process and record what it cost.

Usage: python3 stage.py STATS_JSON -- EFP_ARGS...

The time is taken around the call into ``efp.cli.main``, so interpreter
start-up and imports are left out. Peak RSS is the process's own high-water
mark.
"""

import json
import resource
import sys
import time


def main() -> int:
    stats_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: stage.py STATS_JSON -- EFP_ARGS...")
    from efp.cli import main as efp_main

    t = time.perf_counter()
    rc = efp_main(argv)
    stats = {
        "rc": rc,
        "main_s": time.perf_counter() - t,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    with open(stats_path, "w", encoding="utf-8") as f:
        json.dump(stats, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
