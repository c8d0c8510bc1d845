"""The pinned outcome and report hashes hold on the Python running the suite.

Each script sets its own import path from the checkout it sits in, and
exits 1 when a hash, program count or pivot count differs from its pin.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("script", ["outcome_hashes.py", "report_hashes.py"])
def test_the_pins_hold(script):
    done = subprocess.run(
        [sys.executable, str(TESTS / script)],
        cwd=TESTS.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
