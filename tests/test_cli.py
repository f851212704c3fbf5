import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dropk.cli
import dropk.greedy
import dropk.greedy_condition
import dropk.verify
from dropk.cli import main
from dropk.greedy_condition import VerifyReport


class Crash(Exception):
    pass


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

class TestSolve:
    def test_worked_example_linear(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "3", "--algo", "linear", "6782334")
        assert code == 0 and out == "8334\n"

    def test_zero_deletions_greedy(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "0", "--algo", "greedy", "abc")
        assert code == 0 and out == "abc\n"

    def test_delete_everything(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "7", "6782334")
        assert code == 0 and out == "\n"

    def test_engines_agree(self, capsys):
        outputs = set()
        for algo in ("naive", "greedy", "linear"):
            code, out, _ = run(capsys, "solve", "--k", "2", "--algo", algo, "194234")
            assert code == 0
            outputs.add(out)
        assert outputs == {"9434\n"}

    def test_default_engine_is_linear(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "1", "6782334")
        assert code == 0 and out == "782334\n"

    def test_file_input_strips_trailing_newline(self, capsys, tmp_path):
        source = tmp_path / "input.txt"
        source.write_text("6782334\n", encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--k", "3", "--file", str(source))
        assert code == 0 and out == "8334\n"

    def test_file_keeps_carriage_returns(self, capsys, tmp_path):
        source = tmp_path / "input.txt"
        source.write_bytes(b"9\r1\r\n")
        code, from_file, _ = run(capsys, "solve", "--k", "0", "--file", str(source))
        assert code == 0
        code, from_arg, _ = run(capsys, "solve", "--k", "0", "9\r1")
        assert code == 0 and from_file == from_arg == "9\r1\n"

    def test_empty_input_zero_deletions(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "0", "")
        assert code == 0 and out == "\n"

    def test_too_many_deletions(self, capsys, tmp_path):
        source = tmp_path / "input.txt"
        source.write_text("abc\n", encoding="utf-8")
        for given in (["abc"], ["--file", str(source)]):
            code, out, err = run(capsys, "solve", "--k", "4", *given)
            assert code == 2 and out == "" and "cannot drop more" in err

    def test_naive_cost_guard(self, capsys):
        # the length is capped, the deletion count is not
        naive = run(capsys, "solve", "--k", "7", "--algo", "naive", "123456789012345")
        linear = run(capsys, "solve", "--k", "7", "--algo", "linear", "123456789012345")
        assert naive == linear == (0, "89012345\n", "")
        code, out, err = run(capsys, "solve", "--k", "2", "--algo", "naive",
                             "123456789012345678901")
        assert code == 2 and out == "" and "naive engine is limited" in err

    def test_naive_within_guard(self, capsys):
        code, out, _ = run(capsys, "solve", "--k", "3", "--algo", "naive", "6782334")
        assert code == 0 and out == "8334\n"
        # the longest input the guard takes
        code, out, _ = run(capsys, "solve", "--k", "6", "--algo", "naive",
                           "61803398874989484820")
        assert code == 0 and out == "98874989484820\n"

    def test_naive_cost_does_not_grow_with_k(self, capsys):
        # every deletion count of 20 digits within a quarter of the 1 s
        # one call at k = 5 was allowed
        digits = "61803398874989484820"
        start = time.perf_counter()
        got = [run(capsys, "solve", "--k", str(k), "--algo", "naive", digits)
               for k in range(len(digits) + 1)]
        assert time.perf_counter() - start < 0.25
        assert got[5] == (0, "898874989484820\n", "")
        assert got == [run(capsys, "solve", "--k", str(k), "--algo", "linear", digits)
                       for k in range(len(digits) + 1)]

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "solve", "--k", "1")
        assert code == 2 and "exactly one input" in err

    def test_both_inputs(self, capsys, tmp_path):
        source = tmp_path / "x.txt"
        source.write_text("abc", encoding="utf-8")
        code, _, err = run(capsys, "solve", "--k", "1", "abc", "--file", str(source))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--k", "1", "--file", "/no/such/file")
        assert code == 2

    def test_file_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_bytes(b"\xff\xfe12")
        # a positional argument's bad bytes arrive as lone surrogates
        for command in ("solve", "trace"):
            for given in (["--file", str(source)], ["1\udcff9"]):
                code, out, err = run(capsys, command, "--k", "1", *given)
                assert code == 2 and out == ""
                assert err.startswith("error: ") and "not valid UTF-8" in err

    def test_argv_bytes_not_utf8_is_a_usage_error(self, tmp_path):
        # in process, main is handed text already decoded; only a real
        # argv shows the interpreter's decoding of the raw bytes
        out = tmp_path / "out.txt"
        with open(out, "w") as stdout:
            code, err = run_dropk(["solve", "--k", "1", b"1\xff9"], stdout, PYTHONUTF8="1")
        assert code == 2 and out.read_text() == ""
        assert err == "error: input: not valid UTF-8 (character 1)\n"

    def test_uncounted_phase_from_a_file(self, capsys, tmp_path):
        # the scan's uncounted first phase (k >= 64), from a file through
        # the CLI, on answers known in closed form or from the greedy engine
        source = tmp_path / "input.txt"

        def solve(k, algo, text):
            source.write_text(text + "\n", encoding="utf-8")
            return run(capsys, "solve", "--k", str(k), "--algo", algo, "--file", str(source))

        # k = n - 1 on weakly ascending digits keeps the largest digit
        ascending = "".join(str(i // 10000) for i in range(100_000))
        assert solve(99_999, "linear", ascending) == (0, "9\n", "")
        # weakly descending digits never pop: k = n/2 keeps the first half
        descending = ascending[::-1]
        assert solve(50_000, "linear", descending) == (0, descending[:50_000] + "\n", "")
        # seeded random digits, and Latin-1 beyond ASCII, whose uncounted
        # phase is its weak suffix maxima: the scan agrees with greedy
        r = random.Random(21)
        digits = "".join(r.choice("0123456789") for _ in range(2000))
        r = random.Random(22)
        latin1 = "".join(chr(r.randrange(0x80, 0x100)) for _ in range(2000))
        for text in (digits, latin1):
            assert solve(1000, "linear", text) == solve(1000, "greedy", text)
        # a U+00FF and then equal bytes never pop: the cut falls on the tail
        tail = "\xff" + "a" * 99_999
        assert solve(50_000, "linear", tail) == (0, tail[:50_000] + "\n", "")
        # astral characters, whose uncounted phase runs right to left over
        # a UTF-32 view: k = n deletes everything, k = n - 1 keeps the
        # largest, weakly descending input keeps its first half, and a
        # seeded string agrees with greedy
        astral = "".join(chr(0x10000 + i) for i in range(100_000))
        assert solve(100_000, "linear", astral) == (0, "\n", "")
        assert solve(99_999, "linear", astral) == (0, astral[-1] + "\n", "")
        falling = "".join(chr(0x1F600 - i // 100) for i in range(100_000))
        assert solve(50_000, "linear", falling) == (0, falling[:50_000] + "\n", "")
        r = random.Random(23)
        mixed = "".join(chr(r.randrange(0x10000, 0x10100)) for _ in range(2000))
        assert solve(1000, "linear", mixed) == solve(1000, "greedy", mixed)

    def test_negative_k_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--k", "-1", "abc"])
        assert exc.value.code == 2

    def test_non_integer_k_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--k", "abc", "12"])
        assert exc.value.code == 2
        assert "not an integer: 'abc'" in capsys.readouterr().err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        assert code == 0
        assert "violations: 0" in out
        assert "0 mismatches" in out
        assert "counterexample confirmed" in out
        assert "all checks passed" in out

    GOLDEN = "\n".join([
        "engine equivalence up to length 4: 547 cases, 0 mismatches",
        "exchange game up to length 4:",
        "cases: 1434",
        "violations: 0",
        "better-global principle: counterexample confirmed "
        "('934' from '1934' beats best single drop '434' of '4234')",
        "prefix-dominance sweep up to tail length 4: 240 cases, 0 violations",
        "result: all checks passed",
    ]) + "\n"

    def test_golden_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-len", "4", "--alphabet", "123")
        assert code == 0 and out == self.GOLDEN

    def test_single_letter_alphabet(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-len", "1", "--alphabet", "a")
        assert code == 0 and "violations: 0" in out

    def test_length_cap(self, capsys):
        code, _, err = run(capsys, "verify", "--max-len", "10", "--alphabet", "abc")
        assert code == 2 and "capped" in err

    def test_zero_length_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--max-len", "0", "--alphabet", "12")
        assert code == 2 and out == ""
        assert err == "error: --max-len must be >= 1\n"

    @pytest.mark.parametrize("max_len", [6, 7, 8, 9])
    def test_sweep_lengths(self, capsys, monkeypatch, max_len):
        # each sweep reports its lengths as its case count, so no long
        # sweep runs and the lengths come back from either process.
        # An equivalence sweep counts 10**n for each length n it covers:
        # its two parts add up to one 1 digit per length, 0 to max_len
        def recorded(n, alphabet):
            return VerifyReport(n, 0, 0, None)

        def equivalence(n, alphabet, min_len=0):
            return VerifyReport(sum(10**i for i in range(min_len, n + 1)), 0, 0, None)

        monkeypatch.setattr(dropk.verify, "equivalence_sweep", equivalence)
        monkeypatch.setattr(dropk.greedy_condition, "verify_greedy_condition", recorded)
        monkeypatch.setattr(dropk.verify, "mono_aux_sweep", recorded)
        code, out, _ = run(capsys, "verify", "--max-len", str(max_len), "--alphabet", "123")
        assert code == 0 and out.endswith("result: all checks passed\n")
        game, aux = min(max_len, 7), min(max_len, 6)
        lines = out.splitlines()
        assert lines[0] == (f"engine equivalence up to length {max_len}: "
                            f"{'1' * (max_len + 1)} cases, 0 mismatches")
        assert lines[1:3] == [f"exchange game up to length {game}:", f"cases: {game}"]
        assert lines[-2] == f"prefix-dominance sweep up to tail length {aux}: {aux} cases, 0 violations"

    JOBS = ["longest", "game", "aux", "shorter"]

    def wrap_jobs(self, monkeypatch, log, before):
        """Have each of verify's jobs, as it starts, append ``pid index``
        to ``log`` and call ``before(index)``."""
        shared = dropk.cli._shared

        def wrapped(i, job):
            def run_job():
                with open(log, "a") as f:
                    print(os.getpid(), i, file=f)
                before(i)
                return job()
            return run_job

        monkeypatch.setattr(dropk.cli, "_shared",
                            lambda jobs: shared([wrapped(i, job) for i, job in enumerate(jobs)]))

    @pytest.mark.parametrize("held", [0, 1, 2], ids=JOBS[:3])
    def test_the_process_free_first_takes_the_next_job(self, capsys, monkeypatch, tmp_path,
                                                       held):
        # each job runs once, and while one process is held on a job the
        # other takes every later one
        log = tmp_path / "jobs.log"
        self.wrap_jobs(monkeypatch, log, lambda i: i == held and time.sleep(0.5))
        code, out, err = run(capsys, "verify", "--max-len", "4", "--alphabet", "123")
        assert (code, out, err) == (0, self.GOLDEN, "")
        ran = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(i) for _, i in ran) == [0, 1, 2, 3]
        ran_in = {int(i): pid for pid, i in ran}
        assert all(ran_in[later] != ran_in[held] for later in range(held + 1, 4))

    @pytest.mark.parametrize("job", range(4), ids=JOBS)
    def test_a_failing_job_gives_no_verdict(self, capsys, monkeypatch, tmp_path, job):
        # raised here, the job's error goes out unchanged; raised in the
        # child, the child fails.  Either way there is no verdict, and the
        # child is reaped
        log = tmp_path / "jobs.log"

        def crash(i):
            if i == job:
                raise Crash

        self.wrap_jobs(monkeypatch, log, crash)
        with pytest.raises((Crash, RuntimeError)) as raised:
            run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        ran_here = f"{os.getpid()} {job}" in log.read_text().splitlines()
        assert raised.type is (Crash if ran_here else RuntimeError)
        assert "result:" not in capsys.readouterr().out
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("free, error", [("parent", Crash), ("child", RuntimeError)])
    def test_a_failing_shorter_sweep_gives_no_verdict(self, capsys, monkeypatch, tmp_path,
                                                      free, error):
        # the other process is held on each job it takes, and ``free``
        # waits until the other has taken one, so ``free`` runs the
        # shorter lengths, the last job, even when its first jobs end
        # before the other process starts: raised here, the error goes
        # out unchanged; raised in the child, the child fails; either way
        # the child is reaped
        log, here = tmp_path / "jobs.log", os.getpid()

        def hold_or_crash(i):
            me = str(os.getpid())
            if (me == str(here)) != (free == "parent"):
                time.sleep(0.5)
                return
            deadline = time.monotonic() + 10
            while all(line.split()[0] == me for line in log.read_text().splitlines()):
                assert time.monotonic() < deadline, "the other process took no job"
                time.sleep(0.01)
            if i == 3:
                raise Crash

        self.wrap_jobs(monkeypatch, log, hold_or_crash)
        with pytest.raises(error):
            run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        assert (f"{here} 3" in log.read_text().splitlines()) == (free == "parent")
        assert "result:" not in capsys.readouterr().out
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_first_mismatch_is_the_shortest_sequences(self, capsys, monkeypatch):
        # the shorter lengths and the longest one both mismatch: the
        # first printed is the first in length order
        monkeypatch.setattr(dropk.verify, "solve_linear", lambda k, xs: xs)
        _, out, _ = run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        assert "  first mismatch: xs='a' k=1: naive='' greedy='' linear='a'" in out.splitlines()

    def test_a_child_that_exits_nonzero_gives_no_verdict(self, capsys, monkeypatch):
        # its reports arrive, but a child that did not exit cleanly is a failure
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(code + 3))
        with pytest.raises(RuntimeError):
            run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        assert "result:" not in capsys.readouterr().out

    def test_without_fork_the_sweeps_run_in_process(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        code, out, err = run(capsys, "verify", "--max-len", "4", "--alphabet", "123")
        assert (code, out, err) == (0, self.GOLDEN, "")

    def test_unflushed_output_is_written_once(self):
        # the child leaves by os._exit, so it never flushes the stdout
        # buffer it shares with its parent
        src = Path(__file__).resolve().parents[1] / "src"
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        script = ("import sys, dropk.cli\n"
                  "print('before', end='')\n"
                  "sys.exit(dropk.cli.main(['verify', '--max-len', '2', '--alphabet', '12']))\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(env, PYTHONPATH=str(src)))
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.count("before") == 1
        assert done.stdout.startswith("beforeengine equivalence up to length 2: ")
        assert done.stdout.count("result: all checks passed") == 1

    def test_alphabet_must_be_distinct(self, capsys):
        code, _, err = run(capsys, "verify", "--max-len", "2", "--alphabet", "aab")
        assert code == 2 and "distinct" in err

    # over "ab" up to length 3 a broken engine misses every case with
    # k > 0, 34 of 49; the identity rewrite loses 28 of the game's 70
    # cases, and the rejecting helper all 21 of its own
    PROBLEMS = {"solve_linear": 34, "solve_greedy": 34, "each_all_k": 34,
                "_alter": 28, "check_mono_aux": 21}

    @pytest.mark.parametrize("module, name, broken, first", [
        # the linear engine keeps everything: the equivalence sweep disagrees
        (dropk.verify, "solve_linear", lambda k, xs: xs, "  first mismatch: "),
        # so does the greedy engine, and so does the naive oracle
        (dropk.verify, "solve_greedy", lambda k, xs: xs, "  first mismatch: "),
        (dropk.verify, "each_all_k",
         lambda seqs: ((xs, [xs] * (len(xs) + 1)) for xs in seqs),
         "  first mismatch: "),
        # an identity rewrite never deletes a kept foot: the game loses rounds
        (dropk.greedy_condition, "_alter", lambda actions, foot: actions,
         "first counterexample: "),
        # the prefix-dominance helper rejects every tail
        (dropk.verify, "check_mono_aux", lambda x, tail, witness: False,
         "  first counterexample: "),
    ])
    def test_violation_exits_1(self, capsys, monkeypatch, module, name, broken, first):
        monkeypatch.setattr(module, name, broken)
        code, out, _ = run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        assert code == 1
        assert any(line.startswith(first) for line in out.splitlines())
        assert out.splitlines()[-1] == f"result: {self.PROBLEMS[name]} problems found"

    def test_game_counterexample_line(self, capsys, monkeypatch):
        # the game's first counterexample goes unindented under its tally
        monkeypatch.setattr(dropk.greedy_condition, "verify_greedy_condition",
                            lambda n, alphabet: VerifyReport(5, 2, 1, "xs='a' plan=d altered=d"))
        code, out, _ = run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        assert code == 1
        lines = out.splitlines()
        game = lines.index("exchange game up to length 3:")
        assert lines[game + 1 : game + 4] == [
            "cases: 5",
            "violations: 1",
            "first counterexample: xs='a' plan=d altered=d",
        ]
        assert lines[game + 4].startswith("better-global principle: ")
        assert lines[-1] == "result: 1 problems found"

    def test_missing_better_global_counterexample_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(dropk.greedy, "better_global_counterexample", lambda a, b: None)
        code, out, _ = run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        assert code == 1
        lines = out.splitlines()
        assert "better-global principle: counterexample NOT found (one was expected)" in lines
        assert lines[-1] == "result: 1 problems found"

    def test_listed_rewrite_plays_like_the_tuple_one(self, capsys, monkeypatch):
        # a rewrite is judged by its positions, not hashed as it comes
        _, expected, _ = run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        real = dropk.greedy_condition._alter
        monkeypatch.setattr(dropk.greedy_condition, "_alter",
                            lambda actions, foot: list(real(actions, foot)))
        code, out, err = run(capsys, "verify", "--max-len", "3", "--alphabet", "ab")
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_lost_deletion_exits_1(self, capsys, monkeypatch, kind):
        # a rewrite that keeps its first deletion off the foot still deletes
        # the foot and never gives a smaller result; only the count shows
        # it, whether the rewrite comes as a list or a tuple
        real = dropk.greedy_condition._alter

        def lossy(actions, foot):
            out = list(real(actions, foot))
            lost = next((i for i, a in enumerate(out) if a and i != foot), None)
            if lost is not None:
                out[lost] = False
            return kind(out)

        monkeypatch.setattr(dropk.greedy_condition, "_alter", lossy)
        code, out, _ = run(capsys, "verify", "--max-len", "2", "--alphabet", "123")
        assert code == 1
        assert "first counterexample: xs='11' plan=dd altered=kd" in out
        assert out.splitlines()[-1] == "result: 9 problems found"


class TestTrace:
    def test_push_pop_finish(self, capsys):
        code, out, _ = run(capsys, "trace", "--k", "1", "19")
        assert code == 0
        lines = out.splitlines()
        assert "PUSH '1'" in lines[0]
        assert "POP '1'" in lines[1]
        assert "FINISH" in lines[2]
        assert lines[-1] == "9"

    def test_zero_budget(self, capsys):
        code, out, _ = run(capsys, "trace", "--k", "0", "abc")
        assert code == 0
        lines = out.splitlines()
        assert "FINISH" in lines[0]
        assert lines[-1] == "abc"

    def test_worked_example_answer(self, capsys):
        code, out, _ = run(capsys, "trace", "--k", "3", "6782334")
        assert code == 0
        assert out.splitlines()[-1] == "8334"

    def test_step_lines_stay_short(self, capsys):
        # a step line must not copy the prefix or the unread input
        n = 4000
        code, out, _ = run(capsys, "trace", "--k", "1", "1" * n)
        assert code == 0
        lines = out.splitlines()
        steps = len(lines) - 1
        assert steps == n + 1 and lines[-1] == "1" * (n - 1)
        assert len(out.encode()) < 100 * steps

    def test_step_line_fields(self, capsys):
        code, out, _ = run(capsys, "trace", "--k", "1", "19")
        assert code == 0
        assert out.splitlines()[:3] == [
            "k=1 i=0 depth=0 PUSH '1'",
            "k=1 i=1 depth=1 POP '1'",
            "k=0 i=1 depth=0 FINISH",
        ]

    def test_too_many_deletions(self, capsys, tmp_path):
        source = tmp_path / "input.txt"
        source.write_text("19\n", encoding="utf-8")
        for given in (["19"], ["--file", str(source)]):
            code, out, err = run(capsys, "trace", "--k", "3", *given)
            assert code == 2 and out == "" and "cannot drop more" in err

    def test_closed_stdout_exits_141_quietly(self, tmp_path):
        # more output than a pipe buffer holds, so the writes outlive the
        # reader
        source = tmp_path / "ones.txt"
        source.write_text("1" * 20_000, encoding="utf-8")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "dropk", "trace", "--k", "1", "--file", str(source)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"k=1 i=0 depth=0 PUSH '1'\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""


def run_dropk(argv, stdout, **env):
    """``python -m dropk`` in a subprocess: its exit code and stderr.

    Standard output stays block-buffered, as by default, so output still
    buffered at exit meets the flush at interpreter shutdown."""
    src = Path(__file__).resolve().parents[1] / "src"
    base = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    done = subprocess.run([sys.executable, "-m", "dropk", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          env=dict(base, PYTHONPATH=str(src), **env))
    return done.returncode, done.stderr


class TestUnwritableOutput:
    # output that stdout cannot take is a usage-style exit with one error
    # line, not a traceback and exit 1, the violation code

    def test_a_character_the_encoding_lacks(self):
        code, err = run_dropk(["solve", "--k", "0", "é9"], subprocess.PIPE,
                              PYTHONIOENCODING="ascii")
        assert code == 2
        assert err.startswith("error: cannot write the output: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_lines_before_an_unencodable_character_go_out(self, tmp_path):
        out = tmp_path / "out.txt"
        with open(out, "w") as stdout:
            code, err = run_dropk(["trace", "--k", "0", "1\u00e9"], stdout,
                                  PYTHONIOENCODING="ascii")
        assert code == 2
        assert out.read_text() == "k=0 i=0 depth=0 FINISH\n"
        assert err.startswith("error: cannot write the output: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_pipe_closed_before_the_first_write(self):
        # the answer is still buffered when the reader is gone, so the
        # flush at interpreter shutdown would meet the closed pipe again
        read, write = os.pipe()
        os.close(read)
        try:
            code, err = run_dropk(["solve", "--k", "0", "123"], write)
        finally:
            os.close(write)
        assert code == 141
        assert err == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_disk(self):
        with open("/dev/full", "w") as full:
            code, err = run_dropk(["verify", "--max-len", "2", "--alphabet", "12"], full)
        assert code == 2
        assert err.startswith("error: cannot write the output: ")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    [],
    ["solve", "123"],
    ["trace", "123"],
    ["verify", "--alphabet", "123"],
    ["verify", "--max-len", "3"],
])
def test_missing_required_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err


def test_cli_import_loads_neither_pathlib_nor_dataclasses():
    # the CLI reads --file with open() and its records are plain tuples;
    # -S keeps a site hook from loading either module first
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import dropk.cli, sys; "
             "print(sorted({'pathlib', 'dataclasses'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
