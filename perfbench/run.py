"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload table-d11 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the package is imported from ./src, and
metric names come from ./BENCHMARK.json.  With --trace 0 the run installs
no instrumentation on splitcm and reports the end-to-end metrics, as
speed-scaled seconds (see calibrate.py); with --trace 1 it wraps the
splitcm layers (see tracer.py) and reports the per-layer metrics in plain
seconds and counts.  The inputs are fixed per workload; the seed is only
recorded.  Each run also writes perfbench/results/<workload>.seed<n>.trace<t>.json
with the figures, the rounds and the machine they were measured on.

Exit codes: 0 with a result line; 2 when the package, BENCHMARK.json or
the workload cannot be found; 1 when set-up fails.
"""

import argparse
import gc
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
FAMILIES = ("table", "lvalue", "oracle", "crosscheck")

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from calibrate import SpeedSampler, timed  # noqa: E402
from workloads import PAPER_TABLES, TABLE_PREC, THETA_PREC, WORKLOADS  # noqa: E402


def _fail(code, message):
    sys.stderr.write("perfbench: %s\n" % message)
    return code


def _import_splitcm():
    """Import splitcm from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "splitcm" / "__init__.py").is_file():
        raise ImportError("no splitcm package under %s" % src)
    sys.path.insert(0, str(src))
    import splitcm

    if not Path(splitcm.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError("splitcm was imported from %s, not from %s" % (splitcm.__file__, src))


def _environment():
    import mpmath
    import numpy

    uname = platform.uname()
    return {
        "system": uname.system,
        "release": uname.release,
        "machine": uname.machine,
        "cpu_count": os.cpu_count(),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
    }


def _setup_child(workload):
    """Imports plus the class stores, sampled; reports to the parent when ready."""
    with SpeedSampler() as sampler:
        _import_splitcm()
        from splitcm import central

        for D in workload.stores:
            central.discover_classes(D)
    sys.stdout.write("ready %r %r\n" % (sampler.busy, sampler.scale("setup", 0)))
    sys.stdout.flush()
    return 0


def _measure_setup(name):
    """Process start to ready: (wall seconds, speed-scaled seconds).

    A child that is not ready within CHILD_TIMEOUT_S is killed, and set-up fails.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload", name]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline().split() if ready else []
        elapsed = time.perf_counter() - start
        if not ready:
            raise RuntimeError("set-up child was not ready within %d s" % CHILD_TIMEOUT_S)
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if len(line) != 3 or line[0] != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up child exited with %s before it was ready" % proc.returncode)
    wall = elapsed - float(line[1])
    return wall, wall * float(line[2])


class Runner:
    """The inputs of one workload and one round of its timed operations."""

    def __init__(self, workload):
        from splitcm import central, hecke, quadratic, theta

        self.w = workload
        self.central, self.hecke, self.theta = central, hecke, theta
        self.problems = []
        self.errors = []
        self.stores = {D: central.discover_classes(D) for D in workload.stores}
        for store in self.stores.values():
            self.problems += checks.check_store(store)
        self.points = []
        for D, n_max in workload.crosscheck:
            for N in central.admissible_levels(D, n_max):
                ctx = hecke.HeckeContext(D, N, prec=THETA_PREC)
                pt = quadratic.heegner_point(ctx, ctx.class_rep)
                for Q in quadratic.reduced_forms(-N):
                    self.points.append(("(%d, %d, %s)" % (D, N, Q), Q, pt))

    def _op(self, sampler, out, family, fn, *args):
        """Time one operation; returns its result, or None when it raised.

        With no sampler (the traced run) the time is plain wall-clock time.
        """
        if sampler is None:
            result, wall = timed(fn, *args)
            scaled = wall
        else:
            result, wall, scaled = sampler.timed(family, fn, *args)
        out["wall_s"][family].append(wall)
        out["scaled_s"][family].append(scaled)
        if isinstance(result, Exception):
            self.errors.append("%s%r raised %s: %s" % (fn.__name__, args[:2], type(result).__name__, result))
            return None
        return result

    def _theta_pair(self, Q, pt):
        theta = self.theta
        return (
            theta.theta_form(Q, pt, THETA_PREC),
            theta.symplectic_theta_splitcm(theta.SplitCMPoint(Q, pt), THETA_PREC),
        )

    def round(self, sampler):
        """Every operation of the workload once: (per-op times, attempted, failed)."""
        central, hecke = self.central, self.hecke
        out = {"wall_s": {f: [] for f in FAMILIES}, "scaled_s": {f: [] for f in FAMILIES}}
        ops = failed = 0

        for D, N in self.w.table:
            ops += 1
            ctx = hecke.HeckeContext(D, N, prec=TABLE_PREC)
            got = self._op(sampler, out, "table", central.classify, ctx, self.stores[D])
            if got is None:
                failed += 1
            else:
                self.problems += checks.check_table_level(N, got[1], PAPER_TABLES[D][N])

        values = {}
        for D, N, prec in self.w.lvalue:
            ops += 1
            ctx = hecke.HeckeContext(D, N, prec=prec)
            L = self._op(sampler, out, "lvalue", central.l_value, ctx, self.stores[D])
            if L is None:
                failed += 1
            else:
                values[D, N] = L
                self.problems += checks.check_lvalue(ctx, L, hecke.find_generator)

        for D, N, _ in self.w.lvalue:
            ops += 1
            approx = self._op(sampler, out, "oracle", central.oracle_l_value, D, N)
            if approx is None:
                failed += 1
            elif (D, N) in values:
                self.problems += checks.check_oracle(D, N, values[D, N], approx)

        for label, Q, pt in self.points:
            ops += 1
            pair = self._op(sampler, out, "crosscheck", self._theta_pair, Q, pt)
            if pair is None:
                failed += 1
            else:
                self.problems += checks.check_theta_pair(label, *pair)
        return out, ops, failed


def _rounds(runner, sampler, seconds, after_round=None):
    """Whole rounds, until another one would end past the time budget."""
    rounds = []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        gc.collect()
        out, ops, bad = runner.round(sampler)
        attempted += ops
        failed += bad
        if after_round:
            out["trace"] = after_round()
        rounds.append(out)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds, attempted, failed


def _layer_metrics(spec, rounds):
    """Per-layer metrics, per round (the mean over the run's rounds)."""
    n = len(rounds)
    spans, work = {}, {}
    for r in rounds:
        for name, (calls, self_s) in r["trace"]["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in r["trace"]["work"].items():
            work[name] = work.get(name, 0) + value
    hits = work.pop("quaternion.orders_isometric.hits")
    iso_calls = spans.get("quaternion.orders_isometric", [0, 0.0])[0]
    out = {}
    for m in spec:
        name = m["name"]
        if name == "quaternion.orders_isometric.hit_ratio":
            value = hits / iso_calls if iso_calls else 0.0
        elif name in work:
            value = work[name] / n
        elif name.endswith(".calls"):
            value = spans.get(name[: -len(".calls")], [0, 0.0])[0] / n
        elif name.endswith(".self_s"):
            value = spans.get(name[: -len(".self_s")], [0, 0.0])[1] / n
        else:
            raise KeyError("per-layer metric %s has no source" % name)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def _family_medians(rounds, key):
    return {f: statistics.median(sum(r[key][f]) for r in rounds) for f in FAMILIES}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(2, "unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)))
    if args.setup_child:
        try:
            return _setup_child(workload)
        except ImportError as exc:
            return _fail(2, "cannot import splitcm: %s" % exc)
    try:
        _import_splitcm()
    except ImportError as exc:
        return _fail(2, "cannot import splitcm: %s" % exc)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(2, "cannot read BENCHMARK.json: %s" % exc)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    setup = []
    try:
        if not args.trace:
            setup = [_measure_setup(workload.name) for _ in range(SETUP_SAMPLES)]
        start = time.perf_counter()
        runner = Runner(workload)
        store_s = time.perf_counter() - start
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        return _fail(1, "set-up failed: %s" % exc)
    setup_trace = tracer.take() if tracer else None

    if tracer:
        rounds, attempted, failed = _rounds(runner, None, args.seconds, tracer.take)
        metrics = _layer_metrics(spec["per_layer"], rounds)
    else:
        with SpeedSampler() as sampler:
            rounds, attempted, failed = _rounds(runner, sampler, args.seconds)
        family_s = _family_medians(rounds, "scaled_s")
        measured = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "table_s": family_s["table"],
            "lvalue_s": family_s["lvalue"],
            "oracle_s": family_s["oracle"],
            "crosscheck_s": family_s["crosscheck"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    for error in runner.errors:
        sys.stderr.write("perfbench: failed: %s\n" % error)
    for problem in runner.problems:
        sys.stderr.write("perfbench: incorrect: %s\n" % problem)
    result = {"correct": not runner.problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "result": result,
        "wall_medians_s": dict(
            _family_medians(rounds, "wall_s"),
            setup=statistics.median(wall for wall, _ in setup) if setup else None,
        ),
        "setup_samples_s": setup,
        "store_build_s": store_s,
        "rounds": [{k: v for k, v in r.items() if k != "trace"} for r in rounds],
        "problems": runner.problems[:50],
        "errors": runner.errors[:50],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = "%s.seed%d.trace%d" % (workload.name, args.seed, args.trace)
    (RESULTS / (stem + ".json")).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer:
        spans = {"setup": setup_trace, "rounds": [r["trace"] for r in rounds]}
        (RESULTS / (stem + ".spans.json")).write_text(json.dumps(spans, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
