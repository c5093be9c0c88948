"""Command line behavior: formats, exit codes, cache, determinism."""

import json
import time

import pytest

from splitcm import cli
from splitcm.cli import (
    CACHE_ENV,
    CACHE_VERSION,
    cache_key,
    cache_read,
    exit_code_for,
    main,
    run,
)
from splitcm.errors import (
    ConventionError,
    IncompleteClassListError,
    InputError,
    InternalError,
    ResourceError,
    SplitError,
    UnsupportedError,
)


def test_table_csv_small():
    code, text = run(["table", "--disc", "-7", "--nmax", "50", "--prec", "50"])
    assert code == 0
    assert text.splitlines() == [
        "N,abs_theta,count,h_eps,h_R",
        "11,1,1,-1,2",
        "23,1,3,-1,6",
        "43,1,1,1,2",
    ]


def test_table_json_small():
    code, text = run(["table", "--disc", "-7", "--nmax", "30", "--prec", "50", "--out", "json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["schema"] == 1
    assert obj["failures"] == []
    assert obj["rows"] == [
        {"N": 11, "abs_theta": 1, "count": 1, "h_eps": -1, "h_R": 2},
        {"N": 23, "abs_theta": 1, "count": 3, "h_eps": -1, "h_R": 6},
    ]


def test_classify_json_two_classes():
    code, text = run(["classify", "--disc", "-11", "--level", "23", "--prec", "50", "--out", "json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["conventions"] == {"b1": 9}
    assert [(c["abs_theta"], c["count"]) for c in obj["classes"]] == [(0, 2), (2, 1)]
    assert sorted(r["theta"] for r in obj["records"]) == [0, 0, 2]
    assert {r["class_id"] for r in obj["records"]} == {0, 1}


def test_lvalue_formats():
    code, text = run(["lvalue", "--disc", "-7", "--level", "11", "--prec", "50"])
    assert code == 0
    header, data = text.splitlines()
    assert header == "re,im"
    re_s, im_s = data.split(",")
    assert abs(float(re_s) - 0.27457144311888215) < 1e-13
    assert abs(float(im_s) - 0.8185491052922107) < 1e-13

    code, text = run(["lvalue", "--disc", "-7", "--level", "11", "--prec", "50", "--out", "json"])
    obj = json.loads(text)
    assert abs(float(obj["re"]) - 0.27457144311888215) < 1e-13


def test_oracle_methods_and_formats():
    # L and the solved root number W at --prec digits, as CSV and as JSON
    code, text = run(["oracle", "--disc", "-7", "--level", "11", "--prec", "30"])
    assert code == 0
    header, data = text.splitlines()
    assert header == "re,im,w_re,w_im"
    re_s, im_s, w_re, w_im = data.split(",")
    assert re_s == "0.274571443118882176773796635661"
    assert abs(float(im_s) - 0.8185491052922107) < 1e-15
    assert abs(abs(complex(float(w_re), float(w_im))) - 1) < 1e-15

    code, text = run(["oracle", "--disc", "-7", "--level", "11", "--prec", "30", "--out", "json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["precision"] == 30
    assert [obj[k] for k in ("re", "im", "w_re", "w_im")] == [re_s, im_s, w_re, w_im]


def test_oracle_cutoff_guard(capsys, tmp_path):
    # the cutoff follows from --prec, which has a floor; there is no --cutoff option,
    # the prime over N is chosen by --b1 alone, and lvalue reads no cache
    with pytest.raises(SystemExit):
        run(["oracle", "--disc", "-7", "--level", "11", "--cutoff", "1000"])
    for flag, value in (("--tau-ideal", "n"), ("--eta-convention", "sec7")):
        with pytest.raises(SystemExit):
            run(["classify", "--disc", "-7", "--level", "11", flag, value])
    with pytest.raises(SystemExit):
        run(["lvalue", "--disc", "-7", "--level", "11", "--cache", str(tmp_path / "cache.json")])
    capsys.readouterr()
    # below 20 digits the 10^-(prec - 15) checks on L and W could not fail
    for command, message in (("oracle", "oracle precision must be at least 20 digits"),
                             ("lvalue", "precision must be at least 20 digits")):
        code, text = run([command, "--disc", "-7", "--level", "11", "--prec", "10"])
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["message"] == message


def test_bad_level_canonical_message(capsys):
    for command in ("classify", "lvalue", "oracle"):
        for level in ("13", "19", "7"):
            code, text = run([command, "--disc", "-7", "--level", level, "--prec", "50"])
            assert code == 2 and text == ""
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"]["message"].startswith("N must satisfy N = 3 mod 4 and split in O_K")


def test_sec7_gets_internal_exit_code(sec7_eta, capsys):
    code, text = run(["classify", "--disc", "-7", "--level", "11", "--prec", "50"])
    assert code == 4 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "ConventionError"


def test_table_level_failure_is_isolated(monkeypatch, capsys):
    classify = cli.classify

    def fails_at_23(ctx, store):
        if ctx.N == 23:
            raise ConventionError("theta is not an integer")
        return classify(ctx, store)

    monkeypatch.setattr(cli, "classify", fails_at_23)
    code, text = run(["table", "--disc", "-7", "--nmax", "50", "--prec", "50", "--out", "json"])
    assert code == 0
    obj = json.loads(text)
    assert [row["N"] for row in obj["rows"]] == [11, 43]
    assert obj["failures"] == [{"N": 23, "message": "ConventionError: theta is not an integer"}]
    warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert warnings == [{"warning": "level 23 failed: ConventionError: theta is not an integer"}]


def test_table_propagates_programming_errors(monkeypatch):
    def broken(ctx, store):
        raise TypeError("broken classify")

    monkeypatch.setattr(cli, "classify", broken)
    with pytest.raises(TypeError):
        run(["table", "--disc", "-7", "--nmax", "30", "--prec", "50"])


def test_table_warm_cache_skips_discovery(tmp_path, monkeypatch):
    argv = ["table", "--disc", "-7", "--nmax", "50", "--prec", "50", "--cache", str(tmp_path / "t.json")]
    code, cold = run(argv)

    def no_discovery(*args, **kwargs):
        raise AssertionError("the warm run discovered the class store")

    monkeypatch.setattr(cli, "discover_classes", no_discovery)
    code_warm, warm = run(argv)
    assert code == code_warm == 0
    assert warm.encode() == cold.encode()
    assert cold.splitlines()[1:] == ["11,1,1,-1,2", "23,1,3,-1,6", "43,1,1,1,2"]


def test_nmax_guard():
    code, _ = run(["table", "--disc", "-7", "--nmax", "7"])
    assert code == 2


def test_missing_required_argument():
    with pytest.raises(SystemExit):
        run(["classify", "--disc", "-7"])  # no --level


def test_exit_code_mapping():
    assert exit_code_for(InternalError("x")) == 4
    assert exit_code_for(ConventionError("x")) == 4
    assert exit_code_for(ResourceError("x")) == 3
    assert exit_code_for(IncompleteClassListError("x")) == 3
    assert exit_code_for(InputError("x")) == 2
    assert exit_code_for(SplitError("x")) == 2
    assert exit_code_for(UnsupportedError("x")) == 2
    assert exit_code_for(ValueError("x")) == 1


def test_cache_cold_warm_identical(tmp_path):
    path = str(tmp_path / "cache.json")
    argv = ["classify", "--disc", "-7", "--level", "11", "--prec", "50", "--cache", path]
    code1, cold = run(argv)
    code2, warm = run(argv)
    assert code1 == code2 == 0
    assert cold == warm
    data = json.loads(open(path).read())
    assert data["version"] == CACHE_VERSION
    assert list(data["entries"]) == [cache_key(-7, 11, 9, 50)]
    assert "missing" not in cache_read(path)


def test_table_loads_the_cache_once(tmp_path, monkeypatch):
    # cold: one read, and one locked read-merge-write of all computed levels;
    # warm: one read and no write
    path = str(tmp_path / "cache.json")
    argv = ["table", "--disc", "-7", "--nmax", "50", "--prec", "50", "--cache", path]
    load_cache, cache_write = cli._load_cache, cli.cache_write
    loads, writes = [], []

    def counting_load(p):
        loads.append(p)
        return load_cache(p)

    def counting_write(p, *args):
        writes.append(p)
        return cache_write(p, *args)

    monkeypatch.setattr(cli, "_load_cache", counting_load)
    monkeypatch.setattr(cli, "cache_write", counting_write)
    code, cold = run(argv)
    assert code == 0 and len(loads) == 2 and len(writes) == 1
    entries = json.loads(open(path).read())["entries"]
    assert sorted(entries) == sorted(cache_key(-7, N, b1, 50) for N, b1 in ((11, 9), (23, 19), (43, 37)))
    loads.clear()
    writes.clear()
    code, warm = run(argv)
    assert code == 0 and warm == cold
    assert len(loads) == 1 and writes == []


def test_cache_entry_of_another_version_is_recomputed(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    argv = ["classify", "--disc", "-7", "--level", "11", "--prec", "50"]
    _, cold = run(argv)
    monkeypatch.setattr(cli, "__version__", "0.0.0")
    run(argv + ["--cache", str(path)])
    monkeypatch.undo()
    # make the other release's entry wrong, so that serving it would show
    data = json.loads(path.read_text(encoding="utf-8"))
    (old_key,) = data["entries"]
    data["entries"][old_key]["rows"][0]["h_eps"] = 99
    path.write_text(json.dumps(data), encoding="utf-8")
    code, text = run(argv + ["--cache", str(path)])
    assert code == 0
    assert text.encode() == cold.encode()
    entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
    assert sorted(entries) == sorted([old_key, cache_key(-7, 11, 9, 50)])


def test_cache_keys_isolate_precision_and_conventions(tmp_path):
    path = str(tmp_path / "cache.json")
    base = ["classify", "--disc", "-7", "--level", "11", "--cache", path]
    _, a = run(base + ["--prec", "50"])
    _, b = run(base + ["--prec", "40"])
    _, c = run(base + ["--prec", "50", "--b1", str(2 * 11 - 9)])
    entries = json.loads(open(path).read())["entries"]
    assert len(entries) == 3
    # the conjugate prime over N flips the sign column, so a cache hit
    # across primes would be visible here
    assert a.splitlines()[-1] == "11,1,1,-1,2"
    assert c.splitlines()[-1] == "11,1,1,1,2"


def test_cache_corrupt_file_recovers(tmp_path, capsys):
    path = tmp_path / "cache.json"
    path.write_text("{this is not json", encoding="utf-8")
    argv = ["classify", "--disc", "-7", "--level", "11", "--prec", "50", "--cache", str(path)]
    code, text = run(argv)
    assert code == 0
    assert text.splitlines()[-1] == "11,1,1,-1,2"
    err = capsys.readouterr().err
    assert "unreadable" in err and "recomputing" in err
    # the rewritten file is valid again and serves the warm path
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["version"] == CACHE_VERSION and len(data["entries"]) == 1
    code, warm = run(argv)
    assert warm == text


def test_cache_unreadable_file_is_warned_about_once(tmp_path, capsys):
    # cache_read and cache_write both load the file; only the read warns
    path = tmp_path / "cache.json"
    path.write_text("{oops", encoding="utf-8")
    code, text = run(["table", "--disc", "-7", "--nmax", "50", "--prec", "50", "--cache", str(path)])
    assert code == 0 and text.splitlines()[1] == "11,1,1,-1,2"
    warnings = [json.loads(line)["warning"] for line in capsys.readouterr().err.splitlines()]
    assert len(warnings) == 1 and "unreadable" in warnings[0], warnings


def test_cache_unwritable_file_is_a_warning(tmp_path, capsys):
    # a cache that cannot be written loses the cache, not the computed output
    path = str(tmp_path / "missing" / "cache.json")
    for argv, last in ((["classify", "--disc", "-7", "--level", "11"], "11,1,1,-1,2"),
                       (["table", "--disc", "-7", "--nmax", "30"], "23,1,3,-1,6")):
        code, text = run(argv + ["--prec", "50", "--cache", path])
        assert code == 0 and text.splitlines()[-1] == last, argv
        warnings = [json.loads(line)["warning"] for line in capsys.readouterr().err.splitlines()]
        assert len(warnings) == 1 and "unwritable" in warnings[0] and path in warnings[0], warnings


def test_cache_path_that_is_a_directory_leaves_no_tmp_file(tmp_path, capsys):
    # the merged file cannot replace a directory: the run still prints its
    # rows, and the failed write removes its PATH.tmp (the .lock file stays)
    path = tmp_path / "D"
    path.mkdir()
    code, text = run(["classify", "--disc", "-7", "--level", "11", "--prec", "50", "--cache", str(path)])
    assert code == 0 and text.splitlines()[-1] == "11,1,1,-1,2"
    warnings = [json.loads(line)["warning"] for line in capsys.readouterr().err.splitlines()]
    assert any("unwritable" in w for w in warnings), warnings
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "D.lock"]


def test_level_past_the_embedding_node_cap_is_refused_at_once(capsys):
    # (-7, 10000019): classify, and l_value through it, count h_R for each
    # class before any per-form work, and the Gross lattice's short-vector
    # enumeration at that norm is bounded by more nodes than its cap
    for command in ("classify", "lvalue"):
        start = time.perf_counter()
        code, text = run([command, "--disc", "-7", "--level", "10000019"])
        assert time.perf_counter() - start < 5, command
        assert code == 3 and text == "", command
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["message"] == "short-vector enumeration bounded by 5719272 nodes, over the cap of 4000000"


def test_huge_level_and_disc_are_refused_at_once(capsys):
    # a prime level near 10^18 passes is_prime's strong test at once, and
    # embedding_count's node bound refuses it; a D below -163 is refused
    # before any class number is computed
    for argv, code_want in (
        (["lvalue", "--disc", "-7", "--level", "1000000000000000003"], 3),
        (["table", "--disc", "-1000000007", "--nmax", "50"], 2),
    ):
        start = time.perf_counter()
        code, text = run(argv)
        assert time.perf_counter() - start < 2, argv
        assert code == code_want and text == "", argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["code"] == code_want, argv


def test_level_two_is_refused_before_the_jacobi_symbol(capsys):
    for command in ("lvalue", "oracle"):
        code, text = run([command, "--disc", "-7", "--level", "2", "--prec", "50"])
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == {"code": 2, "type": "InputError", "message": "level N = 2 is not 3 mod 4"}


def test_b1_is_printed_and_cached_reduced_mod_2n(tmp_path):
    # 31 = 9 mod 22 names the default prime over 11: the same b1, the same
    # output and the same cache entry as the default
    path = str(tmp_path / "cache.json")
    base = ["--disc", "-7", "--level", "11", "--prec", "50", "--out", "json"]
    _, default = run(["classify"] + base + ["--cache", path])
    code, typed = run(["classify"] + base + ["--cache", path, "--b1", "31"])
    assert code == 0 and typed == default
    assert json.loads(typed)["conventions"] == {"b1": 9}
    assert list(json.loads(open(path).read())["entries"]) == [cache_key(-7, 11, 9, 50)]
    _, lvalue = run(["lvalue"] + base + ["--b1", "31"])
    assert lvalue == run(["lvalue"] + base)[1]


def test_cache_malformed_entries_recompute(tmp_path, capsys):
    # files of the current format whose entries, or one entry, do not decode
    path = tmp_path / "cache.json"
    argv = ["classify", "--disc", "-7", "--level", "11", "--prec", "50"]
    _, cold = run(argv)
    key = cache_key(-7, 11, 9, 50)
    row = {"N": 11, "abs_theta": 1, "count": 1, "h_eps": -1, "h_r": "2"}
    for entries in ([], {key: {"rows": []}}, {key: {"records": [], "rows": [row]}}):
        path.write_text(json.dumps({"version": CACHE_VERSION, "entries": entries}), encoding="utf-8")
        code, text = run(argv + ["--cache", str(path)])
        assert code == 0 and text.encode() == cold.encode()
        warnings = [json.loads(line)["warning"] for line in capsys.readouterr().err.splitlines()]
        assert warnings and all("recomputing" in w for w in warnings)
        # the entry was overwritten and serves the warm path
        data = json.loads(path.read_text(encoding="utf-8"))
        assert list(data["entries"]) == [key] and sorted(data["entries"][key]) == ["records", "rows"]
        assert run(argv + ["--cache", str(path)]) == (0, cold)
        assert capsys.readouterr().err == ""


def test_cache_schema_version_mismatch_recomputes(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    argv = ["classify", "--disc", "-7", "--level", "11", "--prec", "50", "--cache", str(path)]
    # a version-1 file, whose entries also held each theta value at full precision
    version_1 = {
        "version": 1,
        "entries": {
            cache_key(-7, 11, 9, 50): {
                "records": [{"form": [1, 1, 3], "re": "-1.0", "im": "0.0", "snapped": -1, "class_id": 0,
                             "eps": -1}],
                "rows": [{"N": 11, "abs_theta": 1, "count": 1, "h_eps": -1, "h_r": 2}],
                "timings": {"seconds": 0.01},
            }
        },
    }
    classify = cli.classify
    calls = []

    def counting(ctx, store):
        calls.append(ctx.N)
        return classify(ctx, store)

    monkeypatch.setattr(cli, "classify", counting)
    for old in ({"version": 999, "entries": {"stale": {}}}, version_1):
        path.write_text(json.dumps(old), encoding="utf-8")
        code, text = run(argv)
        assert code == 0 and text.splitlines()[-1] == "11,1,1,-1,2"
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["version"] == CACHE_VERSION == 2
        assert "stale" not in data["entries"]
        (entry,) = data["entries"].values()
        assert sorted(entry) == ["records", "rows"]
        assert all(sorted(r) == ["class_id", "eps", "form", "snapped"] for r in entry["records"])
    assert calls == [11, 11]  # neither file was read


def test_table_refuses_a_bad_precision_once(capsys):
    # one error, not an empty table with a warning per level
    code, text = run(["table", "--disc", "-7", "--nmax", "50", "--prec", "0"])
    assert code == 2 and text == ""
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": {"code": 2, "type": "InputError", "message": "precision must be at least 20 digits"}}
    ]


def test_cache_env_var(tmp_path, monkeypatch):
    path = tmp_path / "envcache.json"
    monkeypatch.setenv(CACHE_ENV, str(path))
    code, a = run(["classify", "--disc", "-7", "--level", "11", "--prec", "50"])
    assert code == 0 and path.exists()
    code, b = run(["classify", "--disc", "-7", "--level", "11", "--prec", "50"])
    assert a == b


def test_cold_runs_are_deterministic(tmp_path):
    argv = ["classify", "--disc", "-11", "--level", "23", "--prec", "50", "--out", "json"]
    _, a = run(argv)
    _, b = run(argv)
    assert a == b


def test_main_prints_and_returns(capsys, tmp_path):
    code = main(["table", "--disc", "-7", "--nmax", "30", "--prec", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("N,abs_theta,count,h_eps,h_R")
