"""Command line front end: solve, verify and trace.

Exit codes: 0 on success, 1 when a verification sweep finds a violation,
2 on usage or precondition errors and on output stdout cannot take, 141
(128 + SIGPIPE) when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import marshal
import os
import sys

from . import greedy, greedy_condition, linear, oracle, verify
from .core import drops, max_lex

# The exhaustive engine grows every deletion count's answer, O(n^3) for
# any k: 0.1-0.2 ms per call on 20 elements (Python 3.11, 2-vCPU VM),
# 2.8 ms on 100.  It is a test instrument, not a fast path.
NAIVE_MAX_LEN = 20

EQUIV_MAX_LEN = 9
GAME_MAX_LEN = 7
AUX_MAX_LEN = 6

ENGINES = {
    "naive": oracle.solve_naive,
    "greedy": greedy.solve_greedy,
    "linear": linear.solve_linear,
}


class _UsageError(Exception):
    pass


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", nargs="?", default=None, help="the sequence itself")
    parser.add_argument("--file", default=None, metavar="PATH",
                        help="read the sequence from a UTF-8 file (one trailing \\n or \\r\\n stripped)")


def _load_input(args) -> str:
    if (args.input is None) == (args.file is None):
        raise _UsageError("provide exactly one input: positional text or --file")
    text = args.input
    if args.file is None:
        # argv bytes that are not UTF-8 arrive as lone surrogates, which
        # no UTF-8 output can print
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise _UsageError(f"input: not valid UTF-8 (character {exc.start})")
    else:
        # bytes, not text mode: text mode would turn every "\r" into "\n"
        try:
            with open(args.file, "rb") as f:
                text = f.read().decode("utf-8")
        except OSError as exc:
            raise _UsageError(str(exc))
        except UnicodeDecodeError as exc:
            raise _UsageError(f"{args.file}: not valid UTF-8 (byte {exc.start}: {exc.reason})")
        if text.endswith("\n"):
            text = text[:-1]
            if text.endswith("\r"):
                text = text[:-1]
    if args.k > len(text):
        raise _UsageError("cannot drop more elements than present")
    return text


def cmd_solve(args) -> int:
    text = _load_input(args)
    if args.algo == "naive" and len(text) > NAIVE_MAX_LEN:
        raise _UsageError(f"naive engine is limited to length <= {NAIVE_MAX_LEN}")
    print(ENGINES[args.algo](args.k, text))
    return 0


def _shared(jobs):
    """``[job() for job in jobs]``, with the jobs shared between this
    process and one forked child.

    Before the fork this process writes each job's index, one byte, into
    a pipe and closes the pipe's write end, so a read of the emptied
    pipe returns at once.  Then each process takes the next index and
    runs that job until the pipe is empty: the jobs start in list order,
    each in whichever process is free first, and each runs once.

    The child sends its results, which ``marshal`` must write, back by
    index through a second pipe and leaves by ``os._exit``, which
    flushes none of the output buffers it shares with this process.  The
    child is reaped whatever the jobs do here, and one that fails or
    sends nothing raises ``RuntimeError``.  Without ``os.fork``, the
    jobs run one after another in this process."""
    if not hasattr(os, "fork"):
        return [job() for job in jobs]
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(jobs))))
    os.close(fill)
    read, write = os.pipe()

    def run_queue():
        done = {}
        while index := os.read(queue, 1):
            done[index[0]] = jobs[index[0]]()
        return done

    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(run_queue()))
            code = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(code)
    os.close(write)
    try:
        done = run_queue()
    finally:
        os.close(queue)
        with open(read, "rb") as pipe:
            sent = pipe.read()
        _, status = os.waitpid(pid, 0)
    if status or not sent:
        raise RuntimeError(f"the forked sweeps failed (exit code "
                           f"{os.waitstatus_to_exitcode(status)}, {len(sent)} bytes sent)")
    done.update(marshal.loads(sent))
    return [done[i] for i in range(len(jobs))]


def cmd_verify(args) -> int:
    alphabet = args.alphabet
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise _UsageError("alphabet must be a nonempty string of distinct characters")
    if args.max_len < 1:
        raise _UsageError("--max-len must be >= 1")
    if args.max_len > EQUIV_MAX_LEN:
        raise _UsageError(f"--max-len is capped at {EQUIV_MAX_LEN}")

    bad = 0
    game_len = min(args.max_len, GAME_MAX_LEN)
    aux_len = min(args.max_len, AUX_MAX_LEN)

    # the longest length is most of the equivalence sweep, so it goes first
    # and the small jobs last; marshal writes plain tuples, not NamedTuples
    longest, report, aux, shorter = map(greedy_condition.VerifyReport._make, _shared([
        lambda: tuple(verify.equivalence_sweep(args.max_len, alphabet, args.max_len)),
        lambda: tuple(greedy_condition.verify_greedy_condition(game_len, alphabet)),
        lambda: tuple(verify.mono_aux_sweep(aux_len, alphabet)),
        lambda: tuple(verify.equivalence_sweep(args.max_len - 1, alphabet)),
    ]))
    cases = shorter.cases + longest.cases
    mismatches = shorter.violations + longest.violations
    first = shorter.first_counterexample or longest.first_counterexample

    print(f"engine equivalence up to length {args.max_len}: "
          f"{cases} cases, {mismatches} mismatches")
    if first is not None:
        print(f"  first mismatch: {first}")
    bad += mismatches

    print(f"exchange game up to length {game_len}:")
    print(f"cases: {report.cases}")
    print(f"violations: {report.violations}")
    if report.first_counterexample is not None:
        print(f"first counterexample: {report.first_counterexample}")
    bad += report.violations

    counterexample = greedy.better_global_counterexample("1934", "4234")
    best = max_lex(drops("4234"))
    if counterexample is not None:
        print(
            "better-global principle: counterexample confirmed "
            f"({counterexample!r} from '1934' beats best single drop {best!r} of '4234')"
        )
    else:
        print("better-global principle: counterexample NOT found (one was expected)")
        bad += 1

    print(f"prefix-dominance sweep up to tail length {aux_len}: "
          f"{aux.cases} cases, {aux.violations} violations")
    if aux.first_counterexample is not None:
        print(f"  first counterexample: {aux.first_counterexample}")
    bad += aux.violations

    print("result: " + ("all checks passed" if bad == 0 else f"{bad} problems found"))
    return 0 if bad == 0 else 1


def cmd_trace(args) -> int:
    text = _load_input(args)
    for ev in linear.scan_events(args.k, text):
        element = "" if ev.action == "FINISH" else f" {ev.element!r}"
        print(f"k={ev.k} i={ev.index} depth={ev.depth} {ev.action}{element}")
    print(linear.solve_linear(args.k, text))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropk",
        description="Delete k elements from a sequence so the remainder is "
                    "lexicographically largest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="print the largest remainder after k deletions")
    solve.add_argument("--k", type=_nonneg_int, required=True, help="number of deletions")
    solve.add_argument("--algo", choices=sorted(ENGINES), default="linear",
                       help="engine to use (default: linear)")
    _add_input_args(solve)
    solve.set_defaults(func=cmd_solve)

    verify_cmd = sub.add_parser(
        "verify",
        help="exhaustively check the engines and the greedy exchange argument",
        description="Runs four sweeps: engine equivalence for every sequence over "
                    "the alphabet up to --max-len, the exchange game (capped at "
                    f"length {GAME_MAX_LEN}), the fixed better-global counterexample, "
                    f"and the prefix-dominance helper (capped at length {AUX_MAX_LEN}).",
    )
    verify_cmd.add_argument("--max-len", type=_nonneg_int, required=True,
                            help=f"sequence length bound, at most {EQUIV_MAX_LEN}")
    verify_cmd.add_argument("--alphabet", required=True,
                            help="distinct characters the sequences are built from")
    verify_cmd.set_defaults(func=cmd_verify)

    trace = sub.add_parser("trace", help="show every step of the linear scan")
    trace.add_argument("--k", type=_nonneg_int, required=True, help="number of deletions")
    _add_input_args(trace)
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnicodeEncodeError, OSError) as exc:
        # stdout cannot take the output.  A failed write (a closed pipe, a
        # full disk) leaves stdout on devnull for the shutdown flush; lines
        # before a character the encoding lacks still go out
        if isinstance(exc, OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # the reader is gone
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2

