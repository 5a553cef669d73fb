"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("optimize", [[], ["-O"]])
@pytest.mark.parametrize("args, message", [
    (["--dims", "1,2"], "--dims: need one dimension per ordinal, 5 in all"),
    (["--size", "0"], "--size: need at least 1"),
    (["--dims", "1,x"], "invalid dim_list value"),
])
def test_roundtrip_demo_rejects_bad_arguments(optimize, args, message):
    # a usage error, with or without asserts, never a traceback
    done = subprocess.run(
        [sys.executable, *optimize, str(SCRIPTS / "roundtrip_demo.py"), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert message in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""
