"""The per-test time budget of conftest.py: a test that sleeps past its
budget fails, in a pytest subprocess, instead of hanging the run; a
hypothesis test too, which must not replay the sleeping example."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import aptk

SLEEPER = """\
import time

from hypothesis import given, settings, strategies as st


def test_sleeps_past_its_budget():
    time.sleep(60)


@settings(deadline=None, database=None)
@given(st.integers())
def test_every_example_sleeps_past_its_budget(n):
    time.sleep(60)


def test_after_it_runs():
    pass
"""


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the budget needs SIGALRM")
def test_a_sleeping_test_fails_at_its_budget(tmp_path):
    conftest = Path(__file__).with_name("conftest.py").read_text()
    assert "TEST_BUDGET_S = 120\n" in conftest
    (tmp_path / "conftest.py").write_text(conftest.replace("TEST_BUDGET_S = 120\n", "TEST_BUDGET_S = 0.5\n"))
    (tmp_path / "test_sleeper.py").write_text(SLEEPER)
    env = dict(os.environ, PYTHONPATH=str(Path(aptk.__file__).parents[1]))
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=50,
    )
    assert time.monotonic() - start < 30
    assert run.returncode == 1, run.stdout
    assert "the test ran over its time budget of 0.5 s" in run.stdout
    assert "2 failed, 1 passed" in run.stdout
