"""Command line front end: tables, central values, classification, oracle.

Output goes to stdout as CSV (default) or JSON; errors and warnings go to
stderr as single-line JSON records so the data stream stays pipeable.
Exit codes: 0 success, 2 input validation, 3 resource limits, 4 internal
consistency failures.

Expensive per-level results (theta records and class rows) can be cached in
a JSON file named by --cache or the SPLITCM_CACHE environment variable.
Entries are keyed by discriminant, level, root b1, precision, and both
convention flags, so a cached value is never served across conventions.
"""

import argparse
import dataclasses
import fcntl
import json
import os
import sys
import time
from dataclasses import dataclass

import mpmath

from .central import (
    ClassRow,
    ThetaRecord,
    classify,
    discover_classes,
    l_value,
    make_table,
    oracle_l_value,
)
from .errors import (
    InputError,
    InternalError,
    ResourceError,
    SplitCMError,
    SplitError,
)
from .hecke import ETA_CONVENTION_CHOICES, TAU_IDEAL_CHOICES, HeckeContext
from .numeric import BigComplex
from .quadratic import QuadForm

CACHE_SCHEMA = 1
CACHE_ENV = "SPLITCM_CACHE"


@dataclass(frozen=True)
class RunConfig:
    command: str
    disc: int
    level: int = None
    nmax: int = None
    prec: int = 80
    out_format: str = "csv"
    cache_path: str = None
    tau_ideal: str = "nbar"
    eta_convention: str = "sec6"
    b1: int = None
    cutoff: float = 1.0e5
    method: str = "fast"


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--disc", type=int, required=True, help="negative field discriminant")
    common.add_argument("--prec", type=int, default=80, help="working precision in digits")
    common.add_argument("--out", choices=("csv", "json"), default="csv", dest="out_format")
    parser = argparse.ArgumentParser(
        prog="splitcm",
        description="central values of twisted canonical Hecke L-series via theta "
        "values at split-CM points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def conventions(p, with_b1=True):
        p.add_argument("--eta-convention", choices=ETA_CONVENTION_CHOICES, default="sec6")
        p.add_argument("--tau-ideal", choices=TAU_IDEAL_CHOICES, default="nbar")
        if with_b1:
            p.add_argument("--b1", type=int, default=None, help="override the root b1 of D mod 4N")
        p.add_argument("--cache", default=None, dest="cache_path", help="cache file path")

    p_table = sub.add_parser("table", parents=[common], help="class rows for all admissible levels")
    p_table.add_argument("--nmax", type=int, required=True, help="largest level to include")
    conventions(p_table, with_b1=False)

    p_lvalue = sub.add_parser("lvalue", parents=[common], help="central L-value at one level")
    p_lvalue.add_argument("--level", type=int, required=True)
    conventions(p_lvalue)

    p_classify = sub.add_parser("classify", parents=[common], help="theta records and class rows at one level")
    p_classify.add_argument("--level", type=int, required=True)
    conventions(p_classify)

    p_oracle = sub.add_parser("oracle", parents=[common], help="smoothed Dirichlet-series cross-check value")
    p_oracle.add_argument("--level", type=int, required=True)
    p_oracle.add_argument("--cutoff", type=float, default=1.0e5)
    p_oracle.add_argument("--method", choices=("fast", "exact"), default="fast")

    return parser


def config_from_args(args):
    fields = ("level", "nmax", "prec", "out_format", "cache_path", "tau_ideal",
              "eta_convention", "b1", "cutoff", "method")
    kwargs = {name: getattr(args, name) for name in fields if getattr(args, name, None) is not None}
    return RunConfig(command=args.command, disc=args.disc, **kwargs)


def cache_key(disc, level, b1, prec, tau_ideal, eta_convention):
    return "d%d.n%d.b%d.p%d.%s.%s" % (disc, level, b1, prec, tau_ideal, eta_convention)


def _fresh_cache():
    return {"version": CACHE_SCHEMA, "entries": {}}


def _load_cache(path):
    if not os.path.exists(path):
        return _fresh_cache()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        _warn("cache file %s unreadable (%s); recomputing" % (path, exc))
        return _fresh_cache()
    if not isinstance(data, dict) or data.get("version") != CACHE_SCHEMA or "entries" not in data:
        return _fresh_cache()
    return data


def cache_read(path, key):
    return _load_cache(path)["entries"].get(key)


def cache_write(path, key, value):
    with open(path + ".lock", "a+", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            data = _load_cache(path)
            data["entries"][key] = value
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, path)
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def _serialize_result(records, rows, prec, seconds):
    return {
        "records": [
            {
                "form": [r.form.a, r.form.b, r.form.c],
                "re": mpmath.nstr(r.theta_hat.re, prec),
                "im": mpmath.nstr(r.theta_hat.im, prec),
                "snapped": r.snapped_integer,
                "class_id": r.class_id,
                "eps": r.eps,
            }
            for r in records
        ],
        "rows": [dataclasses.asdict(w) for w in rows],
        "timings": {"seconds": round(seconds, 3)},
    }


def _deserialize_result(payload, prec):
    records = [
        ThetaRecord(
            form=QuadForm(*r["form"]),
            theta_hat=BigComplex.make(r["re"], r["im"], prec),
            snapped_integer=r["snapped"],
            class_id=r["class_id"],
            eps=r["eps"],
        )
        for r in payload["records"]
    ]
    rows = [ClassRow(**w) for w in payload["rows"]]
    return records, rows


def _context(cfg, level):
    try:
        return HeckeContext(
            cfg.disc,
            level,
            b1=cfg.b1,
            prec=cfg.prec,
            tau_ideal=cfg.tau_ideal,
            eta_convention=cfg.eta_convention,
        )
    except SplitError as exc:
        raise SplitError("N must satisfy N = 3 mod 4 and split in O_K (%s)" % exc) from exc


def _records_rows(cfg, ctx, store_box):
    key = cache_key(ctx.D, ctx.N, ctx.b1, ctx.prec, ctx.tau_ideal, ctx.eta_convention)
    if cfg.cache_path:
        payload = cache_read(cfg.cache_path, key)
        if payload is not None:
            return _deserialize_result(payload, ctx.prec)
    if store_box.get("store") is None:
        store_box["store"] = _discover(ctx)
    start = time.monotonic()
    records, rows = classify(ctx, store_box["store"])
    if cfg.cache_path:
        cache_write(cfg.cache_path, key, _serialize_result(records, rows, ctx.prec, time.monotonic() - start))
    return records, rows


def _discover(ctx):
    return discover_classes(ctx.D, prec=ctx.prec, tau_ideal=ctx.tau_ideal, eta_convention=ctx.eta_convention)


def _csv_rows(rows):
    lines = ["N,abs_theta,count,h_eps,h_R"]
    lines.extend("%d,%d,%d,%d,%d" % (w.N, w.abs_theta, w.count, w.h_eps, w.h_r) for w in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _level_json(cfg, ctx, **fields):
    """The JSON document of a one-level command (classify, lvalue)."""
    conventions = {"tau_ideal": ctx.tau_ideal, "eta_convention": ctx.eta_convention, "b1": ctx.b1}
    return _json_text(dict(schema=CACHE_SCHEMA, command=cfg.command, disc=cfg.disc, level=cfg.level,
                           precision=cfg.prec, conventions=conventions, **fields))


def _row_obj(w):
    return {"N": w.N, "abs_theta": w.abs_theta, "count": w.count, "h_eps": w.h_eps, "h_R": w.h_r}


def _cmd_table(cfg):
    if cfg.nmax is None or cfg.nmax < 11:
        raise InputError("table needs --nmax of at least 11")
    store_box = {}
    result = make_table(cfg.disc, cfg.nmax, prec=cfg.prec, tau_ideal=cfg.tau_ideal,
                        eta_convention=cfg.eta_convention,
                        level_rows=lambda ctx: _records_rows(cfg, ctx, store_box)[1])
    for N, message in result.failures:
        _warn("level %d failed: %s" % (N, message))
    if cfg.out_format == "json":
        return _json_text(
            {
                "schema": CACHE_SCHEMA,
                "command": "table",
                "disc": cfg.disc,
                "nmax": cfg.nmax,
                "precision": cfg.prec,
                "conventions": {"tau_ideal": cfg.tau_ideal, "eta_convention": cfg.eta_convention},
                "rows": [_row_obj(w) for w in result.rows],
                "failures": [{"N": n, "message": msg} for n, msg in result.failures],
            }
        )
    return _csv_rows(result.rows)


def _cmd_classify(cfg):
    ctx = _context(cfg, cfg.level)
    records, rows = _records_rows(cfg, ctx, {})
    if cfg.out_format == "json":
        return _level_json(
            cfg,
            ctx,
            classes=[_row_obj(w) for w in rows],
            records=[
                {"form": [r.form.a, r.form.b, r.form.c], "theta": r.snapped_integer,
                 "class_id": r.class_id, "eps": r.eps}
                for r in records
            ],
        )
    return _csv_rows(rows)


def _cmd_lvalue(cfg):
    ctx = _context(cfg, cfg.level)
    value = l_value(ctx, _discover(ctx))
    re_s = mpmath.nstr(value.re, cfg.prec)
    im_s = mpmath.nstr(value.im, cfg.prec)
    if cfg.out_format == "json":
        return _level_json(cfg, ctx, re=re_s, im=im_s)
    return "re,im\n%s,%s\n" % (re_s, im_s)


def _cmd_oracle(cfg):
    if cfg.cutoff < 1.0e3:
        raise InputError("oracle cutoff must be at least 10^3")
    try:
        value = oracle_l_value(cfg.disc, cfg.level, X=cfg.cutoff, method=cfg.method)
    except SplitError as exc:
        raise SplitError("N must satisfy N = 3 mod 4 and split in O_K (%s)" % exc) from exc
    if cfg.out_format == "json":
        return _json_text(
            {
                "schema": CACHE_SCHEMA,
                "command": "oracle",
                "disc": cfg.disc,
                "level": cfg.level,
                "cutoff": cfg.cutoff,
                "method": cfg.method,
                "re": value.real,
                "im": value.imag,
            }
        )
    return "re,im\n%r,%r\n" % (value.real, value.imag)


def _warn(message):
    sys.stderr.write(json.dumps({"warning": message}) + "\n")


def _emit_error(exc):
    record = {"error": {"code": exit_code_for(exc), "type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(record) + "\n")


def exit_code_for(exc):
    if isinstance(exc, InternalError):
        return 4
    if isinstance(exc, ResourceError):
        return 3
    if isinstance(exc, SplitCMError):
        return 2
    return 1


def run(argv):
    """Parse and dispatch; returns (exit code, rendered stdout text)."""
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    if cfg.cache_path is None and os.environ.get(CACHE_ENV):
        cfg = dataclasses.replace(cfg, cache_path=os.environ[CACHE_ENV])
    try:
        if cfg.command == "table":
            return 0, _cmd_table(cfg)
        if cfg.command == "lvalue":
            return 0, _cmd_lvalue(cfg)
        if cfg.command == "classify":
            return 0, _cmd_classify(cfg)
        if cfg.command == "oracle":
            return 0, _cmd_oracle(cfg)
        raise InputError("unknown command %r" % (cfg.command,))
    except SplitCMError as exc:
        _emit_error(exc)
        return exit_code_for(exc), ""


def main(argv=None):
    code, text = run(argv)
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
