"""The acceptance scoreboard: verdict lines that conftest prints after the run.

It lives in its own module, not in conftest, because the benchmark's tests
have a conftest.py too, and a test cannot import one of two conftest
modules by name.
"""

CRITERION_LINES = []
