"""Each correctness check passes on the program's output and fails on a corrupted copy.

Run from the root of the checkout:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mpf

import calibrate
import checks
import tracer
from splitcm.central import classify, discover_classes, l_value, oracle_l_value
from splitcm.hecke import HeckeContext, find_generator
from splitcm.numeric import BigComplex
from splitcm.quadratic import heegner_point, reduced_forms
from splitcm.theta import SplitCMPoint, symplectic_theta_splitcm, theta_form
from workloads import PAPER_TABLE_1, PAPER_TABLE_2, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def store7():
    return discover_classes(-7)


@pytest.fixture(scope="module")
def level11(store7):
    ctx = HeckeContext(-7, 11, prec=80)
    return ctx, classify(ctx, store7)[1], l_value(ctx, store7)


def test_brute_class_numbers():
    assert [checks.brute_class_number(-n) for n in (7, 23, 47, 71, 191, 199)] == [1, 3, 5, 7, 13, 9]


def test_store_mass(store7):
    assert checks.check_store(store7) == []
    heavier = dataclasses.replace(store7.classes[0], omega=store7.classes[0].omega + 1)
    assert checks.check_store(dataclasses.replace(store7, classes=(heavier,)))


def test_table_rows(level11):
    _, rows, _ = level11
    assert checks.check_table_level(11, rows, PAPER_TABLE_1[11]) == []
    row = rows[0]
    for changed in (
        dataclasses.replace(row, count=row.count + 1, h_r=row.h_r + 2),
        dataclasses.replace(row, abs_theta=row.abs_theta + 1),
        dataclasses.replace(row, h_r=row.h_r + 2),
        dataclasses.replace(row, h_eps=3 * row.h_eps),
    ):
        assert checks.check_table_level(11, [changed], PAPER_TABLE_1[11]), changed


def test_table_sign_rules():
    def rows(N, signs=(1, 1)):
        return [
            dataclasses.replace(_row(N, a, c, h), h_eps=s * h)
            for (a, c, h), s in zip(PAPER_TABLE_2[N], signs)
        ]

    assert checks.check_table_level(23, rows(23), PAPER_TABLE_2[23]) == []
    # one global sign on the nonzero-theta rows is allowed, on theta 0 it is not
    assert checks.check_table_level(23, rows(23, (1, -1)), PAPER_TABLE_2[23]) == []
    assert checks.check_table_level(23, rows(23, (-1, 1)), PAPER_TABLE_2[23])
    # a row set that matches the paper but not 2 h(-N): h(-31) is 3, not 4
    padded = [(0, 3, 3), (2, 1, -1)]
    assert any("2 h(-N)" in p for p in checks.check_table_level(31, [_row(31, *r) for r in padded], padded))


def _row(N, a, c, h):
    from splitcm.central import ClassRow

    return ClassRow(N=N, abs_theta=a, count=c, h_eps=h, h_r=2 * c)


def test_lvalue_phase(level11):
    ctx, _, L = level11
    assert checks.check_lvalue(ctx, L, find_generator) == []
    nudged = L + BigComplex.make(mpf(10) ** -40, 0, L.prec)
    assert checks.check_lvalue(ctx, nudged, find_generator)
    assert checks.check_lvalue(ctx, BigComplex.make(0, 0, L.prec), find_generator)


def test_oracle_agreement(level11):
    _, _, L = level11
    approx = oracle_l_value(-7, 11)
    assert checks.check_oracle(-7, 11, L, approx) == []
    assert checks.check_oracle(-7, 11, L, approx * 1.02)
    assert checks.check_oracle(-7, 11, L, approx.conjugate())


def test_theta_pair():
    ctx = HeckeContext(-7, 11, prec=80)
    pt = heegner_point(ctx, ctx.class_rep)
    Q = reduced_forms(-11)[0]
    classical = theta_form(Q, pt, 80)
    siegel = symplectic_theta_splitcm(SplitCMPoint(Q, pt), 80)
    assert checks.check_theta_pair("(-7, 11)", classical, siegel) == []
    apart = siegel + BigComplex.make(mpf(10) ** -60, 0, 80)
    assert checks.check_theta_pair("(-7, 11)", classical, apart)


def test_every_table_level_has_a_paper_row():
    for w in WORKLOADS.values():
        for D, N in w.table:
            assert N in {-7: PAPER_TABLE_1, -11: PAPER_TABLE_2}[D]


def test_self_time_excludes_children():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = t.wrap("x.inner", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    t.wrap("x.outer", outer)()
    snap = t.take()
    calls, self_s = snap["spans"]["x.outer"]
    assert calls == 1 and snap["spans"]["x.inner"][0] == 2
    assert snap["spans"]["x.inner"][1] >= 0.04 and 0.005 < self_s < 0.03
    assert t.take()["spans"]["x.outer"] == [0, 0.0]


def test_sampler_scales_and_reports_errors():
    def spin():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return "done"

    def broken():
        raise ValueError("boom")

    with calibrate.SpeedSampler() as sampler:
        result, wall, scaled = sampler.timed("table", spin)
        error, _, _ = sampler.timed("oracle", broken)
    assert result == "done" and isinstance(error, ValueError)
    assert len(sampler.samples["table"]) > calibrate.MIN_SAMPLES
    assert gc.isenabled()  # chunks switch the collector off only while they run
    # the handler's own time is taken out of the operation's wall time
    assert 0.15 < wall < 0.2
    assert scaled == pytest.approx(wall * sampler.scale("table", calibrate.MIN_SAMPLES))


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, it exits non-zero and prints no result."""
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "theta-check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_setup_child_that_never_gets_ready_is_killed(tmp_path, monkeypatch):
    import run

    hang = tmp_path / "hang.py"
    hang.write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(run, "__file__", str(hang))
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="not ready"):
        run._measure_setup("theta-check")
    assert time.perf_counter() - start < 10
