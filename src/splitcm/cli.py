"""Command line front end: tables, central values, classification, oracle.

Output goes to stdout as CSV (default) or JSON; errors and warnings go to
stderr as single-line JSON records so the data stream stays pipeable.
Exit codes: 0 success, 2 input validation, 3 resource limits, 4 internal
consistency failures.

Each subcommand's parser names its handler with set_defaults, and run calls
it on the argparse namespace.  run also turns a package error into the stderr
record and exit code, with one message for every level that does not split.

The one convention is the root b1 of D mod 4N that fixes the prime over N
(--b1, default the smallest odd root); 2N - b1 picks the conjugate prime.

table and classify can cache each level's results in a JSON file named by
--cache, whose default is the SPLITCM_CACHE environment variable.  An entry
holds integers only: per form its snapped theta integer, class id and sign,
and the level's class rows.  Entries are keyed by the package version,
discriminant, level, root b1 and precision, so a cached value is never
served across primes over N or by a release other than the one that
computed it.  An entry that does not decode is recomputed and overwritten.
A command reads the file once and merges what it computed into it once; a
file that cannot be written is a warning, and the output is still printed.
"""

import argparse
import contextlib
import dataclasses
import fcntl
import functools
import json
import os
import sys

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
from .errors import InputError, InternalError, ResourceError, SplitCMError, SplitError
from .hecke import HeckeContext
from .quadratic import QuadForm

CACHE_VERSION = 2  # the cache file's format
OUTPUT_SCHEMA = 1  # the format of the JSON documents on stdout
CACHE_ENV = "SPLITCM_CACHE"


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

    def command(name, handler, text):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(handler=handler)
        return p

    p_table = command("table", _cmd_table, "class rows for all admissible levels")
    p_table.add_argument("--nmax", type=int, required=True, help="largest level to include")
    p_lvalue = command("lvalue", _cmd_lvalue, "central L-value at one level")
    p_classify = command("classify", _cmd_classify, "theta records and class rows at one level")
    p_oracle = command("oracle", _cmd_oracle, "L and its root number from the functional equation")
    for p in (p_lvalue, p_classify, p_oracle):
        p.add_argument("--level", type=int, required=True)
    for p in (p_lvalue, p_classify):
        p.add_argument("--b1", type=int, help="override the root b1 of D mod 4N")
    for p in (p_table, p_classify):
        p.add_argument("--cache", default=os.environ.get(CACHE_ENV), dest="cache_path",
                       help="cache file path")
    return parser


def cache_key(disc, level, b1, prec):
    return "v%s.d%d.n%d.b%d.p%d" % (__version__, disc, level, b1, prec)


def _load_cache(path):
    """(data, None), or (a fresh cache, why the file is unreadable)."""
    fresh = {"version": CACHE_VERSION, "entries": {}}
    if not os.path.exists(path):
        return fresh, None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        return fresh, "cache file %s unreadable (%s); recomputing" % (path, exc)
    if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
        return fresh, None
    if not isinstance(data.get("entries"), dict):
        return fresh, "cache file %s unreadable (its entries are not an object); recomputing" % path
    return data, None


def cache_read(path):
    """The file's entries; an unreadable file reads as none."""
    data, problem = _load_cache(path)  # only the read warns about an unreadable file
    if problem:
        _warn(problem)
    return data["entries"]


def cache_write(path, entries):
    """Merge entries into the file as it is now, under its lock; a failed write leaves no PATH.tmp."""
    tmp = path + ".tmp"
    with open(path + ".lock", "a+", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            data, _ = _load_cache(path)
            data["entries"].update(entries)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        finally:
            fcntl.flock(lock, fcntl.LOCK_UN)


def _record_obj(r, theta_key):
    return {"form": [r.form.a, r.form.b, r.form.c], theta_key: r.snapped_integer,
            "class_id": r.class_id, "eps": r.eps}


def _serialize_result(records, rows):
    return {"records": [_record_obj(r, "snapped") for r in records],
            "rows": [dataclasses.asdict(w) for w in rows]}


def _deserialize_result(payload):
    """The (records, rows) of a cache entry; ValueError if a value is not an integer."""
    records = [ThetaRecord(QuadForm(*r["form"]), r["snapped"], r["class_id"], r["eps"])
               for r in payload["records"]]
    rows = [ClassRow(**w) for w in payload["rows"]]
    values = [x for w in rows for x in dataclasses.astuple(w)]
    values += [x for r in records for x in dataclasses.astuple(r.form) + dataclasses.astuple(r)[1:]]
    if not all(type(x) is int for x in values):
        raise ValueError("a value is not an integer")
    return records, rows


@contextlib.contextmanager
def _level_cache(path, store):
    """A function of a level's HeckeContext to its records and rows, cached in the file path.

    The file is read once, on entry, and the levels computed inside are
    written once, on exit; store() runs on the first miss.
    """
    entries, computed = cache_read(path) if path else {}, {}

    def records_rows(ctx):
        key = cache_key(ctx.D, ctx.N, ctx.b1, ctx.prec)
        payload = entries.get(key)
        if payload is not None:
            try:
                return _deserialize_result(payload)
            except (KeyError, TypeError, ValueError, InputError) as exc:
                _warn("cache entry %s does not decode (%s: %s); recomputing" % (key, type(exc).__name__, exc))
        records, rows = classify(ctx, store())
        computed[key] = _serialize_result(records, rows)
        return records, rows

    try:
        yield records_rows
    finally:
        if path and computed:
            try:
                cache_write(path, computed)
            except OSError as exc:
                _warn("cache file %s unwritable (%s); results not cached" % (path, exc))


def _csv_rows(rows):
    lines = ["N,abs_theta,count,h_eps,h_R"]
    lines.extend("%d,%d,%d,%d,%d" % (w.N, w.abs_theta, w.count, w.h_eps, w.h_r) for w in rows)
    return "\n".join(lines) + "\n"


def _document(args, **fields):
    """The JSON document of a command: schema, command, disc, precision and its own fields."""
    doc = dict(schema=OUTPUT_SCHEMA, command=args.command, disc=args.disc, precision=args.prec, **fields)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _row_obj(w):
    return {"N": w.N, "abs_theta": w.abs_theta, "count": w.count, "h_eps": w.h_eps, "h_R": w.h_r}


def _cmd_table(args):
    if args.nmax < 11:
        raise InputError("table needs --nmax of at least 11")
    store = functools.cache(lambda: discover_classes(args.disc))
    with _level_cache(args.cache_path, store) as records_rows:
        result = make_table(args.disc, args.nmax, prec=args.prec, level_rows=lambda ctx: records_rows(ctx)[1])
    for N, message in result.failures:
        _warn("level %d failed: %s" % (N, message))
    if args.out_format == "json":
        return _document(args, nmax=args.nmax, rows=[_row_obj(w) for w in result.rows],
                         failures=[{"N": n, "message": msg} for n, msg in result.failures])
    return _csv_rows(result.rows)


def _cmd_classify(args):
    ctx = HeckeContext(args.disc, args.level, b1=args.b1, prec=args.prec)
    with _level_cache(args.cache_path, lambda: discover_classes(args.disc)) as records_rows:
        records, rows = records_rows(ctx)
    if args.out_format == "json":
        return _document(args, level=args.level, conventions={"b1": ctx.b1},
                         classes=[_row_obj(w) for w in rows],
                         records=[_record_obj(r, "theta") for r in records])
    return _csv_rows(rows)


def _cmd_lvalue(args):
    ctx = HeckeContext(args.disc, args.level, b1=args.b1, prec=args.prec)
    value = l_value(ctx, discover_classes(args.disc))
    re_s, im_s = mpmath.nstr(value.re, args.prec), mpmath.nstr(value.im, args.prec)
    if args.out_format == "json":
        return _document(args, level=args.level, conventions={"b1": ctx.b1}, re=re_s, im=im_s)
    return "re,im\n%s,%s\n" % (re_s, im_s)


def _cmd_oracle(args):
    value, root = oracle_central_value(args.disc, args.level, prec=args.prec)
    parts = dict(zip(("re", "im", "w_re", "w_im"),
                     (mpmath.nstr(x, args.prec) for x in (value.re, value.im, root.re, root.im))))
    if args.out_format == "json":
        return _document(args, level=args.level, **parts)
    return "re,im,w_re,w_im\n%s\n" % ",".join(parts.values())


def _warn(message):
    sys.stderr.write(json.dumps({"warning": message}) + "\n")


def exit_code_for(exc):
    if isinstance(exc, InternalError):
        return 4
    if isinstance(exc, ResourceError):
        return 3
    if isinstance(exc, SplitCMError):
        return 2
    return 1


def run(argv):
    """Parse argv and call the command's handler; returns (exit code, rendered stdout text)."""
    args = build_parser().parse_args(argv)
    try:
        return 0, args.handler(args)
    except SplitError as exc:
        error = SplitError("N must satisfy N = 3 mod 4 and split in O_K (%s)" % exc)
    except SplitCMError as exc:
        error = exc
    code = exit_code_for(error)
    record = {"code": code, "type": type(error).__name__, "message": str(error)}
    sys.stderr.write(json.dumps({"error": record}) + "\n")
    return code, ""


def main(argv=None):
    code, text = run(argv)
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
