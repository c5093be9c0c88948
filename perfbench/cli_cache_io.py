"""Measure the CLI's cache I/O on a table run, cold and then warm.

    python3 perfbench/cli_cache_io.py

Runs `splitcm table --disc -11 --nmax 110 --cache FILE` twice in this process,
first with no cache file and then with the file the first run wrote, and
times every cache_read and cache_write call.  Prints one JSON line.  The
cache file goes to perfbench/results/ and is removed afterwards.  This is
not a benchmark workload: the README says why.
"""

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DISC, NMAX = -11, 110
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from splitcm import cli  # noqa: E402


def _timed(stats, key, fn):
    def inner(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stats[key + "_s"] += time.perf_counter() - start
            stats[key + "s"] += 1

    return inner


def _table_run(argv):
    stats = {"read_s": 0.0, "reads": 0, "write_s": 0.0, "writes": 0}
    read, write = cli.cache_read, cli.cache_write
    cli.cache_read, cli.cache_write = _timed(stats, "read", read), _timed(stats, "write", write)
    start = time.perf_counter()
    try:
        code, _ = cli.run(argv)
    finally:
        cli.cache_read, cli.cache_write = read, write
    stats["total_s"] = time.perf_counter() - start
    stats["exit_code"] = code
    return stats


def main():
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    cache = results / "cli_cache_io.json"
    for path in (cache, Path(str(cache) + ".lock")):
        path.unlink(missing_ok=True)
    argv = ["table", "--disc", str(DISC), "--nmax", str(NMAX), "--cache", str(cache)]
    try:
        report = {"argv": argv, "cold": _table_run(argv), "warm": _table_run(argv)}
    finally:
        for path in (cache, Path(str(cache) + ".lock"), Path(str(cache) + ".tmp")):
            path.unlink(missing_ok=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
