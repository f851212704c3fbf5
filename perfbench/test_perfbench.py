"""Self-tests of the benchmark: the reference, the checks, the tracer and
the launcher.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dropk import cli, linear, oracle  # noqa: E402


def test_reference_equals_naive_up_to_length_seven_over_three_tokens():
    for n in range(8):
        for raw in product("123", repeat=n):
            xs = "".join(raw)
            expected = oracle.solve_naive_all_k(xs, dedupe=True)
            for k in range(n + 1):
                assert workloads.reference(k, xs) == expected[k], (xs, k)


def test_reference_keeps_the_sequence_kind():
    for xs in [(3, 1, 4, 1, 5), [2, 7, 1, 8, 2, 8]]:
        for k in range(len(xs) + 1):
            got = workloads.reference(k, xs)
            assert type(got) is type(xs)
            assert got == oracle.solve_naive(k, xs)


def test_shapes_are_seeded_and_sized():
    for name in workloads.CLI_SHAPES + workloads.LIB_SHAPES:
        a, b = workloads.make_shape(name, 7, 40), workloads.make_shape(name, 7, 40)
        assert a == b and len(a.xs) == 40 and 0 <= a.k <= 40
    assert workloads.make_shape("digits-half", 1, 40) != workloads.make_shape("digits-half", 2, 40)
    astral = workloads.make_shape("astral-asc-all", 1, 40).xs
    assert len(astral.encode("utf-8")) == 4 * 40


def _launcher(tmp_path):
    return run.Launcher({"PYTHONPATH": str(run.SRC)}, tmp_path)


def _small_lib_scan(monkeypatch, tmp_path):
    """One traced cycle of lib-scan on 60-element inputs."""
    build = workloads.make_shape
    monkeypatch.setattr(workloads, "make_shape", lambda name, seed: build(name, seed, 60))
    launcher = _launcher(tmp_path)
    try:
        ops, startup_s, _, _ = run.lib_scan(3, 0.0, True, launcher, tmp_path)
    finally:
        launcher.close()
    assert len(startup_s["pass"]) == len(startup_s["import"]) >= 1
    return ops, startup_s


def test_lib_scan_passes_and_traces_on_the_real_engine(monkeypatch, tmp_path):
    ops, startup_s = _small_lib_scan(monkeypatch, tmp_path)
    assert ops and all(op.ok for op in ops)
    metrics, _ = run.per_layer(ops, startup_s)
    assert metrics["linear.solve_linear.calls"][0] == 3
    assert metrics["linear.count_steps.calls"][0] == 3
    expected_steps = sum(linear.count_steps(s.k, s.xs) for s in
                         (workloads.make_shape(name, 3) for name in workloads.LIB_SHAPES))
    assert metrics["linear.steps"][0] == expected_steps


@pytest.mark.parametrize("corrupt", [
    lambda solve, count: (lambda k, xs: solve(k, xs)[:-1], count),
    lambda solve, count: (solve, lambda k, xs: len(xs) + k + 2),
])
def test_a_corrupted_output_raises_failed_ratio(monkeypatch, tmp_path, corrupt):
    solve, count = corrupt(linear.solve_linear, linear.count_steps)
    monkeypatch.setattr(linear, "solve_linear", solve)
    monkeypatch.setattr(linear, "count_steps", count)
    ops, _ = _small_lib_scan(monkeypatch, tmp_path)
    failed = sum(not op.ok for op in ops)
    assert 0 < failed < len(ops)


def _verify_text(capsys, max_len, alphabet):
    code = cli.main(["verify", "--max-len", str(max_len), "--alphabet", alphabet])
    return capsys.readouterr().out, code


def test_verify_case_counts_match_their_closed_forms(capsys):
    for max_len in (1, 3):
        text, code = _verify_text(capsys, max_len, "xyz")
        assert workloads.verify_output_ok(text, code, max_len, 3), text


def test_verify_check_rejects_skipped_cases_and_failures(capsys):
    text, code = _verify_text(capsys, 3, "xyz")
    cases = workloads.verify_cases(3, 3)["equivalence"]
    assert f" {cases} cases" in text
    assert not workloads.verify_output_ok(
        text.replace(f" {cases} cases", f" {cases - 1} cases"), code, 3, 3)
    assert not workloads.verify_output_ok(text, 1, 3, 3)
    assert not workloads.verify_output_ok(text, code, 4, 3)
    assert not workloads.verify_output_ok(text.replace("all checks passed", "1 problems found"),
                                          code, 3, 3)


def test_tracer_spans_nest_and_originals_come_back(capsys):
    originals = {name: spans._resolve(name) for name in spans.TRACED + spans.COUNTED}
    with spans.Tracer() as tracer:
        assert cli.ENGINES["linear"] is not originals["linear.solve_linear"]
        cli.main(["solve", "--k", "2", "6782334"])
    assert capsys.readouterr().out == "82334\n"
    assert all(spans._resolve(name) is fn for name, fn in originals.items())
    assert cli.ENGINES["linear"] is originals["linear.solve_linear"]
    result = tracer.result()
    names = [(name, parent) for name, _, _, parent in result["spans"]]
    assert names == [("cli.main", -1), ("linear.solve_linear", 0)]
    assert result["steps"] == linear.count_steps(2, "6782334")


def test_self_time_subtracts_direct_children():
    recorded = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 15, 25, 1], ["b", 50, 60, 0]]
    times = spans.layer_times(recorded)
    assert times["a"] == {"calls": 1, "total_ns": 100, "self_ns": 60}
    assert times["b"] == {"calls": 2, "total_ns": 40, "self_ns": 30}
    assert times["c"]["self_ns"] == 10


def test_launcher_reports_output_and_kills_on_timeout(tmp_path):
    launcher = _launcher(tmp_path)
    try:
        reply, out = launcher.run([sys.executable, "-c", "print('hi')"])
        assert (reply["returncode"], out) == (0, b"hi\n")
        assert reply["maxrss_kb"] > 0 and reply["wall_s"] > 0
        request = {"argv": [sys.executable, "-c", "import time; time.sleep(30)"],
                   "env": {}, "stdout": str(tmp_path / "o"), "stderr": str(tmp_path / "e"),
                   "timeout": 0.5}
        launcher.proc.stdin.write(json.dumps(request) + "\n")
        launcher.proc.stdin.flush()
        assert json.loads(launcher.proc.stdout.readline())["returncode"] == -9
    finally:
        launcher.close()
    assert launcher.proc.returncode == 0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
