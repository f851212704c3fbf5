"""The mutation runner's own command line: ``tests/mutants.py``."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

RUNNER = Path(__file__).resolve().parent / "mutants.py"


def copies(tmp: Path) -> list:
    """The runner's temporary copies of the tree under ``tmp``."""
    return [d for d in tmp.iterdir() if d.name.startswith("tmp")]


def test_any_argument_is_a_usage_error(tmp_path):
    # an argument must not start the whole run
    done = subprocess.run([sys.executable, str(RUNNER), "--help"], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert done.returncode == 2
    assert done.stderr.startswith("usage: ")
    assert done.stdout == ""
    assert copies(tmp_path) == []


def test_sigterm_removes_the_copy(tmp_path):
    run = subprocess.Popen([sys.executable, str(RUNNER)], stdout=subprocess.DEVNULL,
                           env=dict(os.environ, TMPDIR=str(tmp_path)))
    try:
        deadline = time.monotonic() + 60
        # pyproject.toml is copied last
        while not any((d / "pyproject.toml").exists() for d in copies(tmp_path)):
            assert time.monotonic() < deadline and run.poll() is None
            time.sleep(0.05)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        run.kill()
        run.wait()
    assert copies(tmp_path) == []
