"""Session wiring: collect acceptance verdict lines and echo them at the end.

pytest captures stdout of passing tests, which would hide the per-criterion
PASS lines from test_acceptance.  The tests append their verdicts to
scoreboard.CRITERION_LINES and a terminal-summary hook prints the whole
scoreboard after the run.

The sec7_eta fixture swaps the package's eta normalization for the
collapsed single-prefactor variant of Section 7, which differs from it by a
root of unity and so must be refused by every integrality check.
"""

import mpmath
import pytest
from mpmath import mp

from scoreboard import CRITERION_LINES
from splitcm import theta
from splitcm.numeric import GUARD_DIGITS, BigComplex


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


def sec7_eta_norm_factor(ctx):
    """e24(N (b1 + 3)^2) * eta(tau_level) * eta(tau_ring), one prefactor for both."""
    prec = ctx.prec
    level = ctx.level_ideal.conjugate()
    ring = ctx.class_rep
    with mp.workdps(prec + GUARD_DIGITS + 5):
        sq = mpmath.sqrt(ctx.D)
        tau_level = (-level.b + sq) / (2 * level.a)
        tau_ring = (-ring.b + sq) / (2 * ring.a)
        pref = mpmath.exp(2j * mpmath.pi * ((ctx.N * (ctx.b1 + 3) ** 2) % 24) / 24)
        value = (
            pref
            * theta.dedekind_eta(tau_level, prec).to_mpc()
            * theta.dedekind_eta(tau_ring, prec).to_mpc()
        )
        return BigComplex.from_mpc(value, prec)


@pytest.fixture
def sec7_eta(monkeypatch):
    monkeypatch.setattr(theta, "eta_norm_factor", sec7_eta_norm_factor)
