"""Session wiring: collect acceptance verdict lines and echo them at the end.

pytest captures stdout of passing tests, which would hide the per-criterion
PASS lines from test_acceptance.  The tests append their verdicts to
scoreboard.CRITERION_LINES and a terminal-summary hook prints the whole
scoreboard after the run.
"""

from scoreboard import CRITERION_LINES


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
