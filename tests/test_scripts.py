"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_roundtrip_demo_recovers_the_chain_complex():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "roundtrip_demo.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = dict(
        (key.strip(), value.strip())
        for key, value in (line.split(":", 1) for line in done.stdout.splitlines())
    )
    assert lines["normalized complex dims"] == lines["chain complex dims"]
    assert lines["chain complex dims"] == "[2, 3, 2, 1, 1]"
    assert lines["unit is a natural iso"] == "True"
