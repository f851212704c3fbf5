"""The mutation runner, ``tests/mutants.py``: its command line and its
time limit."""

import os
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import mutants

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


def running(pid: int) -> bool:
    """Is ``pid`` a live process (not gone, not a zombie)?  Reads Linux's /proc."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def test_a_suite_past_its_limit_is_stopped_with_its_group(tmp_path):
    # a suite that never ends, with a child of its own that never ends
    script = ("import subprocess, sys\n"
              "child = subprocess.Popen([sys.executable, '-c', 'while True: pass'])\n"
              "open(sys.argv[1], 'w').write(str(child.pid))\n"
              "while True: pass\n")
    pid_file = tmp_path / "child"
    suite = subprocess.Popen([sys.executable, "-c", script, str(pid_file)],
                             start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert time.monotonic() < deadline and suite.poll() is None
            time.sleep(0.01)
        started = time.perf_counter()
        while (outcome := mutants._outcome(suite, started, 0.3)) is None:
            time.sleep(0.01)
        assert outcome == "timeout"
        assert suite.returncode == -signal.SIGKILL
        child = int(pid_file.read_text())
        deadline = time.monotonic() + 10
        while running(child):
            assert time.monotonic() < deadline, "the suite's child outlived it"
            time.sleep(0.01)
    finally:
        # whatever the verdict, leave no process of the group behind
        with suppress(ProcessLookupError):
            os.killpg(suite.pid, signal.SIGKILL)
        suite.wait()
