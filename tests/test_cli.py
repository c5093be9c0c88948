"""Command line behavior: formats, exit codes, cache, determinism."""

import json

import pytest

from splitcm import cli
from splitcm.cli import (
    CACHE_ENV,
    CACHE_SCHEMA,
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
    assert obj["schema"] == CACHE_SCHEMA
    assert obj["failures"] == []
    assert obj["rows"] == [
        {"N": 11, "abs_theta": 1, "count": 1, "h_eps": -1, "h_R": 2},
        {"N": 23, "abs_theta": 1, "count": 3, "h_eps": -1, "h_R": 6},
    ]


def test_classify_json_two_classes():
    code, text = run(["classify", "--disc", "-11", "--level", "23", "--prec", "50", "--out", "json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["conventions"] == {"tau_ideal": "nbar", "eta_convention": "sec6", "b1": 9}
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
    code, fast = run(["oracle", "--disc", "-7", "--level", "11", "--cutoff", "1000"])
    assert code == 0
    code, exact = run(
        ["oracle", "--disc", "-7", "--level", "11", "--cutoff", "1000", "--method", "exact"]
    )
    assert code == 0

    def parse(text):
        re_s, im_s = text.splitlines()[1].split(",")
        return complex(float(re_s), float(im_s))

    assert abs(parse(fast) - parse(exact)) < 1e-10

    code, text = run(
        ["oracle", "--disc", "-7", "--level", "11", "--cutoff", "2000", "--out", "json"]
    )
    obj = json.loads(text)
    assert abs(obj["re"] - 0.2745714431188821) < 1e-6
    assert abs(obj["im"] - 0.8185491052922107) < 1e-6


def test_oracle_cutoff_guard(capsys):
    code, text = run(["oracle", "--disc", "-7", "--level", "11", "--cutoff", "500"])
    assert code == 2 and text == ""
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["message"] == "oracle cutoff must be at least 10^3"


def test_bad_level_canonical_message(capsys):
    for level in ("13", "19", "7"):
        code, text = run(["classify", "--disc", "-7", "--level", level, "--prec", "50"])
        assert code == 2 and text == ""
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["message"].startswith("N must satisfy N = 3 mod 4 and split in O_K")


def test_sec7_gets_internal_exit_code(capsys):
    code, text = run(
        ["classify", "--disc", "-7", "--level", "11", "--prec", "50", "--eta-convention", "sec7"]
    )
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
    assert data["version"] == CACHE_SCHEMA
    assert list(data["entries"]) == [cache_key(-7, 11, 9, 50, "nbar", "sec6")]
    assert cache_read(path, "missing") is None


def test_cache_keys_isolate_precision_and_conventions(tmp_path):
    path = str(tmp_path / "cache.json")
    base = ["classify", "--disc", "-7", "--level", "11", "--cache", path]
    _, a = run(base + ["--prec", "50"])
    _, b = run(base + ["--prec", "40"])
    _, c = run(base + ["--prec", "50", "--tau-ideal", "n"])
    entries = json.loads(open(path).read())["entries"]
    assert len(entries) == 3
    # the alternate tau convention flips the sign column, so a cache hit
    # across conventions would be visible here
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
    assert data["version"] == CACHE_SCHEMA and len(data["entries"]) == 1
    code, warm = run(argv)
    assert warm == text


def test_cache_schema_version_mismatch_recomputes(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"version": 999, "entries": {"stale": {}}}), encoding="utf-8")
    argv = ["classify", "--disc", "-7", "--level", "11", "--prec", "50", "--cache", str(path)]
    code, text = run(argv)
    assert code == 0 and text.splitlines()[-1] == "11,1,1,-1,2"
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["version"] == CACHE_SCHEMA
    assert "stale" not in data["entries"]


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
