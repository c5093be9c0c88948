"""Command line front end: tables, central values, classification, oracle.

Output goes to stdout as CSV (default) or JSON; errors and warnings go to
stderr as single-line JSON records so the data stream stays pipeable.
Exit codes: 0 success, 2 input validation, 3 resource limits, 4 internal
consistency failures.

The one convention is the root b1 of D mod 4N that fixes the prime over N
(--b1, default the smallest odd root); 2N - b1 picks the conjugate prime.

table and classify can cache each level's results in a JSON file named by
--cache or the SPLITCM_CACHE environment variable.  An entry holds integers
only: per form its snapped theta integer, class id and sign, and the level's
class rows.  Entries are keyed by the package version, discriminant, level,
root b1 and precision, so a cached value is never served across primes over
N or by a release other than the one that computed it.
"""

import argparse
import dataclasses
import fcntl
import json
import os
import sys
from dataclasses import dataclass

import mpmath

from . import __version__
from .central import (
    ClassRow,
    ThetaRecord,
    classify,
    discover_classes,
    l_value,
    make_table,
    oracle_central_value,
)
from .errors import (
    InputError,
    InternalError,
    ResourceError,
    SplitCMError,
    SplitError,
)
from .hecke import HeckeContext
from .quadratic import QuadForm

CACHE_VERSION = 2  # the cache file's format
OUTPUT_SCHEMA = 1  # the format of the JSON documents on stdout
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
    b1: int = None


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

    p_table = sub.add_parser("table", parents=[common], help="class rows for all admissible levels")
    p_table.add_argument("--nmax", type=int, required=True, help="largest level to include")
    p_table.add_argument("--cache", default=None, dest="cache_path", help="cache file path")

    for name, text in (("lvalue", "central L-value at one level"),
                       ("classify", "theta records and class rows at one level")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--b1", type=int, default=None, help="override the root b1 of D mod 4N")
        if name == "classify":
            p.add_argument("--cache", default=None, dest="cache_path", help="cache file path")

    p_oracle = sub.add_parser("oracle", parents=[common], help="L and its root number from the functional equation")
    p_oracle.add_argument("--level", type=int, required=True)

    return parser


def config_from_args(args):
    fields = ("level", "nmax", "prec", "out_format", "cache_path", "b1")
    kwargs = {name: getattr(args, name) for name in fields if getattr(args, name, None) is not None}
    return RunConfig(command=args.command, disc=args.disc, **kwargs)


def cache_key(disc, level, b1, prec):
    return "v%s.d%d.n%d.b%d.p%d" % (__version__, disc, level, b1, prec)


def _fresh_cache():
    return {"version": CACHE_VERSION, "entries": {}}


def _load_cache(path):
    if not os.path.exists(path):
        return _fresh_cache()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        _warn("cache file %s unreadable (%s); recomputing" % (path, exc))
        return _fresh_cache()
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION or "entries" not in data:
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


def _serialize_result(records, rows):
    return {
        "records": [
            {
                "form": [r.form.a, r.form.b, r.form.c],
                "snapped": r.snapped_integer,
                "class_id": r.class_id,
                "eps": r.eps,
            }
            for r in records
        ],
        "rows": [dataclasses.asdict(w) for w in rows],
    }


def _deserialize_result(payload):
    records = [
        ThetaRecord(
            form=QuadForm(*r["form"]),
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
        return HeckeContext(cfg.disc, level, b1=cfg.b1, prec=cfg.prec)
    except SplitError as exc:
        raise SplitError("N must satisfy N = 3 mod 4 and split in O_K (%s)" % exc) from exc


def _records_rows(cfg, ctx, store_box):
    key = cache_key(ctx.D, ctx.N, ctx.b1, ctx.prec)
    if cfg.cache_path:
        payload = cache_read(cfg.cache_path, key)
        if payload is not None:
            return _deserialize_result(payload)
    if store_box.get("store") is None:
        store_box["store"] = _discover(ctx)
    records, rows = classify(ctx, store_box["store"])
    if cfg.cache_path:
        cache_write(cfg.cache_path, key, _serialize_result(records, rows))
    return records, rows


def _discover(ctx):
    return discover_classes(ctx.D, prec=ctx.prec)


def _csv_rows(rows):
    lines = ["N,abs_theta,count,h_eps,h_R"]
    lines.extend("%d,%d,%d,%d,%d" % (w.N, w.abs_theta, w.count, w.h_eps, w.h_r) for w in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _level_json(cfg, ctx, **fields):
    """The JSON document of a one-level command (classify, lvalue)."""
    return _json_text(dict(schema=OUTPUT_SCHEMA, command=cfg.command, disc=cfg.disc, level=cfg.level,
                           precision=cfg.prec, conventions={"b1": ctx.b1}, **fields))


def _row_obj(w):
    return {"N": w.N, "abs_theta": w.abs_theta, "count": w.count, "h_eps": w.h_eps, "h_R": w.h_r}


def _cmd_table(cfg):
    if cfg.nmax is None or cfg.nmax < 11:
        raise InputError("table needs --nmax of at least 11")
    store_box = {}
    result = make_table(cfg.disc, cfg.nmax, prec=cfg.prec,
                        level_rows=lambda ctx: _records_rows(cfg, ctx, store_box)[1])
    for N, message in result.failures:
        _warn("level %d failed: %s" % (N, message))
    if cfg.out_format == "json":
        return _json_text(
            {
                "schema": OUTPUT_SCHEMA,
                "command": "table",
                "disc": cfg.disc,
                "nmax": cfg.nmax,
                "precision": cfg.prec,
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
    try:
        value, root = oracle_central_value(cfg.disc, cfg.level, prec=cfg.prec)
    except SplitError as exc:
        raise SplitError("N must satisfy N = 3 mod 4 and split in O_K (%s)" % exc) from exc
    parts = dict(zip(("re", "im", "w_re", "w_im"),
                     (mpmath.nstr(x, cfg.prec) for x in (value.re, value.im, root.re, root.im))))
    if cfg.out_format == "json":
        return _json_text(dict(schema=OUTPUT_SCHEMA, command="oracle", disc=cfg.disc, level=cfg.level,
                               precision=cfg.prec, **parts))
    return "re,im,w_re,w_im\n%s\n" % ",".join(parts.values())


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
