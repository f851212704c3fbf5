"""Mutation check: every mutant listed here must make the tier-1 suite fail.

Run from anywhere, with the interpreter that runs the tests::

    python tests/mutants.py

A mutant is a source file, an exact old text that occurs in it once and
a new text.  For each mutant the runner copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` into a temporary directory,
replaces the old text there and runs the tier-1 suite in that copy with
``-x``; ``os.cpu_count()`` copies run at once, and the verdicts print in
list order.  The working tree is never written.  The unmutated suite runs
first, alone, and a mutant's suite that runs ``TIME_LIMIT_FACTOR`` times
as long is stopped, with its whole process group, and counted as killed:
a mutant that stops a loop from ending must not stall the run.  The exit
status is 1 when any mutant survives (the suite passes) or any old text
is not found exactly once, so the list cannot rot silently; otherwise 0.
The runner takes no arguments: any argument prints a usage line and
exits 2 before anything is copied.  SIGTERM stops the run, kills every
running suite and removes the temporary copies.

pytest does not collect this file (it is not named ``test_*.py``), so
tier-1 itself runs no mutant.

Left out because they are equivalent, not because they survive:

- ``check_mono_aux`` returning ``True`` is right under its own
  preconditions (x at least the head of the tail).
- ``_TOP_CODE`` 0x110000 -> 0x110001: both lie above every code point.
- ``k >= _UNCOUNTED_MIN`` -> ``>``, and ``_UNCOUNTED_MIN`` one more or
  one less: the uncounted phase pushes and pops where the counted loop
  would, so moving its gate changes speed only.
- ``type(xs) is bytes`` -> ``False`` in ``_scan``: a Latin-1 string then
  takes the right-to-left pass, which leaves the same stack more slowly.
- ``isinstance(xs, (tuple, list))`` -> ``False`` in ``_scan``: a
  tuple's or list's tail is then copied by ``xs[k:]``, which changes
  memory and speed only.  (``-> True`` is listed: a UTF-32 view's
  iterator has no ``__setstate__``.)
- ``127`` -> ``128`` in ``_push_suffix_maxima``: the walk over an ASCII
  prefix takes one more miss.
- ``len(xs) < max_len`` -> ``<=`` in ``equivalence_sweep``: it stores
  the rows of the longest length, which nothing reads, so only memory
  changes: ``dropk verify --max-len 8``'s peak RSS rose from 15,326 KB
  to 16,472 KB (+7.5%, medians of 8 runs).

Statements that can be replaced by ``pass`` with tier-1 still passing,
each kept for the workload or the contract that pays for it (timings on
Python 3.11.7, 2-vCPU x86-64 VM):

- ``_scan``'s uncounted-phase block (``if k >= _UNCOUNTED_MIN:``): the
  counted loop alone gives the same stack and answer, more slowly.
  cli-solve and lib-scan pay for it (``BENCH_21.json``,
  ``BENCH_22.json``, ``BENCH_24.json``).
- ``solve_linear``'s Latin-1 ``decode`` branch: ``"".join(map(chr, ...))``
  gives the same string.  Converting a 5e5-element stack of digit codes
  took 6.5 ms by ``decode`` against 16.6 ms by ``join``, and cli-solve's
  digits-half result (56,051 stacked digits) 0.4 against 2.3 ms.
- ``grow_rows``' prefix sharing (the ``if type(xs) is type(prev):``
  block, its ``while`` loop, or ``prev = xs``): every sequence then
  builds all its rows.  verify pays for it: the naive stream up to
  length 8 took 41 ms with sharing against 108 ms without, and the game
  up to length 7 68 ms against 79 ms (fastest of 9 interleaved runs).
- ``equivalence_sweep``'s ``min_len > max_len`` check: without it
  ``sequences`` raises the same ``ValueError``, but only after the
  greedy rows below ``min_len`` are built, whose number grows
  exponentially with ``min_len``.
- ``grow_rows``' ``rows = []`` binding: the first sequence shares
  nothing, so its ``else`` branch binds ``rows`` before any read; the
  binding states the variable's type for readers and type checkers.
- ``_Top.__slots__``: the sentinel holds no state, and the empty slots
  say so; with a ``__dict__`` it would still compare the same.
- ``return False`` in ``_Top.__lt__`` and ``return None`` in
  ``better_global_counterexample``: both functions then return
  ``None`` by falling off the end, but their contracts are a bool and a
  sequence or ``None``, spelled out.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import closing, suppress
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# A mutant's suite that runs this many times as long as the unmutated
# one is stopped and counted as killed.
TIME_LIMIT_FACTOR = 4


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    what: str


MUTANTS = [
    # the equivalence sweep stops comparing one engine
    Mutant("src/dropk/verify.py", "expected[k] == got_greedy == got_linear",
           "expected[k] == got_linear", "equivalence sweep skips the greedy engine"),
    Mutant("src/dropk/verify.py", "expected[k] == got_greedy == got_linear",
           "got_greedy == got_linear", "equivalence sweep skips the naive oracle"),
    # the greedy column's rows
    Mutant("src/dropk/verify.py", "row += rows[step]", "row = rows[step] + row",
           "greedy row puts the sequence last"),
    Mutant("src/dropk/verify.py", "row += rows[step]", "row += rows[step][1:] + (step,)",
           "greedy row of the step shifted by one"),
    Mutant("src/dropk/verify.py", "if len(xs) < max_len:", "if len(xs) < max_len - 1:",
           "greedy rows of the next-to-last length not kept"),
    Mutant("src/dropk/verify.py", "row += (step,) * len(xs)", "raise",
           "a step outside the shorter rows raises instead of reporting"),
    Mutant("src/dropk/verify.py", "if len(step) == len(xs) - 1 and step in rows:",
           "if step in rows:", "a step that keeps the length reads a row of its own length"),
    Mutant("src/dropk/verify.py", "            if x < tail[0]:",
           "            if x > tail[0]:", "aux sweep's head test reversed"),
    Mutant("src/dropk/cli.py", "verify.equivalence_sweep(args.max_len, alphabet, args.max_len)",
           "verify.equivalence_sweep(args.max_len - 1, alphabet, args.max_len - 1)",
           "verify's equivalence sweep skips its longest length"),
    Mutant("src/dropk/cli.py", "verify.equivalence_sweep(args.max_len - 1, alphabet)",
           "verify.equivalence_sweep(args.max_len - 2, alphabet)",
           "verify's equivalence sweep skips its next-to-last length"),
    Mutant("src/dropk/cli.py", "verify.equivalence_sweep(args.max_len - 1, alphabet)",
           "verify.equivalence_sweep(args.max_len, alphabet)",
           "verify's equivalence sweep covers its longest length twice"),
    Mutant("src/dropk/cli.py",
           "shorter.first_counterexample or longest.first_counterexample",
           "longest.first_counterexample or shorter.first_counterexample",
           "the longest length's first mismatch is reported before the shorter ones'"),
    # the equivalence sweep's lower length bound
    Mutant("src/dropk/verify.py", "each_all_k(sequences(alphabet, max_len, min_len))",
           "each_all_k(sequences(alphabet, max_len))", "equivalence sweep ignores min_len"),
    Mutant("src/dropk/verify.py", "    if min_len:\n", "    if False:\n",
           "the greedy rows below min_len are never built"),
    Mutant("src/dropk/cli.py",
           'print(f"first counterexample: {report.first_counterexample}")', "pass",
           "verify hides the game's first counterexample"),
    # verify's jobs, shared by this process and a forked child
    Mutant("src/dropk/cli.py", "if status or not sent:", "if not sent:",
           "verify ignores the child's exit status"),
    Mutant("src/dropk/cli.py", "longest, report, aux, shorter = map(",
           "longest, aux, report, shorter = map(",
           "the game's and the prefix-dominance sweep's reports swapped on the way back"),
    Mutant("src/dropk/cli.py", "os._exit(code)", "sys.exit(code)",
           "the child leaves by sys.exit and flushes its parent's buffers"),
    Mutant("src/dropk/cli.py", "_, status = os.waitpid(pid, 0)", "status = 0",
           "the child is never reaped"),
    Mutant("src/dropk/cli.py", "    try:\n        done = run_queue()\n    finally:\n",
           "    done = run_queue()\n    if True:\n",
           "the child is reaped only when this process's jobs return"),
    Mutant("src/dropk/cli.py", "os.write(fill, bytes(range(len(jobs))))",
           "os.write(fill, bytes(range(len(jobs))) * 2)",
           "each index is written twice: every job runs twice"),
    Mutant("src/dropk/cli.py", "        done = run_queue()\n    finally:\n",
           "        index = os.read(queue, 1)[0]\n        done = {index: jobs[index]()}\n"
           "    finally:\n", "this process runs one job and stops"),
    Mutant("src/dropk/cli.py", "    os.close(fill)\n", "",
           "the queue's fill end stays open: a read of the emptied queue waits"),
    Mutant("src/dropk/cli.py", "marshal.dumps(run_queue())", "marshal.dumps(run_queue() and {})",
           "the child's results are dropped"),
    Mutant("src/dropk/cli.py", "return [job() for job in jobs]",
           "return [job() for job in jobs[:-1]]", "without os.fork the last job never runs"),
    Mutant("src/dropk/cli.py", "return [done[i] for i in range(len(jobs))]",
           "return [done[i] for i in reversed(range(len(jobs)))]",
           "the results come back out of index order"),
    # the CLI's imports: neither pathlib nor dataclasses
    Mutant("src/dropk/cli.py", "import sys\n", "import sys\nimport pathlib\n",
           "the CLI imports pathlib"),
    Mutant("src/dropk/greedy_condition.py", "from itertools import combinations, compress\n",
           "import dataclasses\nfrom itertools import combinations, compress\n",
           "a dropk module imports dataclasses"),
    Mutant("src/dropk/cli.py", "    print(linear.solve_linear(args.k, text))",
           "    print(text)", "dropk trace prints the input as its answer"),
    # output that stdout cannot take
    Mutant("src/dropk/cli.py", "except (UnicodeEncodeError, OSError) as exc:",
           "except OSError as exc:", "an unencodable answer ends in a traceback"),
    Mutant("src/dropk/cli.py",
           "        if isinstance(exc, OSError):\n"
           "            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n",
           "", "a closed or full stdout fails again at shutdown"),
    Mutant("src/dropk/cli.py", "if isinstance(exc, OSError):", "if type(exc) is OSError:",
           "a stdout closed before the first flush fails again at shutdown"),
    Mutant("src/dropk/cli.py", "if isinstance(exc, OSError):",
           "if isinstance(exc, BrokenPipeError):", "a full stdout fails again at shutdown"),
    Mutant("src/dropk/cli.py", "if isinstance(exc, OSError):", "if True:",
           "an unencodable character discards the lines before it"),
    Mutant("src/dropk/cli.py", 'write the output: {exc}", file=sys.stderr)\n        return 2',
           'write the output: {exc}", file=sys.stderr)\n        return 1',
           "unwritable output exits with the violation code"),
    # the CLI's required options and caps
    Mutant("src/dropk/cli.py", 'add_subparsers(dest="command", required=True)',
           'add_subparsers(dest="command", required=False)', "subcommand optional"),
    Mutant("src/dropk/cli.py", 'solve.add_argument("--k", type=_nonneg_int, required=True',
           'solve.add_argument("--k", type=_nonneg_int, required=False', "solve --k optional"),
    Mutant("src/dropk/cli.py", 'trace.add_argument("--k", type=_nonneg_int, required=True',
           'trace.add_argument("--k", type=_nonneg_int, required=False', "trace --k optional"),
    Mutant("src/dropk/cli.py", 'add_argument("--max-len", type=_nonneg_int, required=True',
           'add_argument("--max-len", type=_nonneg_int, required=False',
           "verify --max-len optional"),
    Mutant("src/dropk/cli.py", 'add_argument("--alphabet", required=True',
           'add_argument("--alphabet", required=False', "verify --alphabet optional"),
    Mutant("src/dropk/cli.py", "GAME_MAX_LEN = 7", "GAME_MAX_LEN = 8", "game cap one longer"),
    Mutant("src/dropk/cli.py", "AUX_MAX_LEN = 6", "AUX_MAX_LEN = 7",
           "prefix-dominance cap one longer"),
    Mutant("src/dropk/cli.py", "len(text) > NAIVE_MAX_LEN", "len(text) >= NAIVE_MAX_LEN",
           "naive engine refuses its longest input"),
    Mutant("src/dropk/cli.py", "args.max_len > EQUIV_MAX_LEN", "args.max_len >= EQUIV_MAX_LEN",
           "verify refuses its largest --max-len"),
    # the counts the sweeps and the CLI report
    Mutant("src/dropk/verify.py", "mismatches += 1", "mismatches += 2",
           "equivalence sweep counts a mismatch twice"),
    Mutant("src/dropk/verify.py", "violations += 1", "violations += 2",
           "aux sweep counts a violation twice"),
    Mutant("src/dropk/verify.py", "return VerifyReport(cases, 0, violations, first)",
           "return VerifyReport(cases, 1, violations, first)", "aux sweep reports a maxima check"),
    Mutant("src/dropk/cli.py", "        bad += 1\n", "        bad += 2\n",
           "a missing better-global counterexample counts twice"),
    # the scan
    Mutant("src/dropk/linear.py", "return stack, xs, len(stack) - 1 + budget, 0",
           "return stack, xs, len(stack) + budget, 0", "scan's early-exit consumed count"),
    Mutant("src/dropk/linear.py", "    for y in rest:\n        while top < y:",
           "    for y in rest:\n        while top <= y:", "scan pops an equal top"),
    # the uncounted first phase
    Mutant("src/dropk/linear.py", "        k = len(stack)\n", "        k = len(stack) + 1\n",
           "one deletion too many left after the uncounted phase"),
    Mutant("src/dropk/linear.py", "        k = len(stack)\n", "        k = len(stack) - 1\n",
           "one deletion too few left after the uncounted phase"),
    # a Latin-1 string's uncounted phase: its weak suffix maxima
    Mutant("src/dropk/linear.py", "p.rfind(c, i, end)", "p.rfind(c, i)",
           "suffix maxima read past the prefix"),
    Mutant("src/dropk/linear.py", "p.count(c, i, last + 1)", "p.count(c, i, last)",
           "suffix maxima drop each level's last byte"),
    Mutant("src/dropk/linear.py", "            i = last + 1\n", "            i = last\n",
           "suffix-maxima level starts on the last byte of the level above"),
    Mutant("src/dropk/linear.py", "        c -= 1\n", "        c -= 2\n",
           "suffix-maxima walk skips every other level"),
    Mutant("src/dropk/linear.py", "else 255\n", "else 254\n",
           "suffix-maxima walk starts below the largest byte"),
    Mutant("src/dropk/linear.py", "c = 127 if", "c = 126 if",
           "suffix-maxima walk over an ASCII prefix starts below 0x7f"),
    Mutant("src/dropk/linear.py", "p[:end].isascii()", "True",
           "suffix-maxima walk over a non-ASCII prefix starts at 127"),
    Mutant("src/dropk/linear.py", "            stack.append(top)\n            _push_suffix_maxima(",
           "            _push_suffix_maxima(", "sentinel not put back under the suffix maxima"),
    Mutant("src/dropk/linear.py", "rest = xs[k:]",
           "rest = xs[k + 1 :] if type(xs) is bytes else xs[k:]",
           "counted loop skips the byte after the Latin-1 prefix"),
    # the uncounted phase of tuples, lists and UTF-32 views: right to left
    Mutant("src/dropk/linear.py", "if not y < high:", "if y > high:",
           "right-to-left pass drops ties"),
    Mutant("src/dropk/linear.py", "                    high = y\n", "",
           "right-to-left pass never raises its bar"),
    Mutant("src/dropk/linear.py", "high = xs[k - 1]", "high = xs[0]",
           "right-to-left pass starts its bar at the first element"),
    Mutant("src/dropk/linear.py", "for y in xs[k - 1 :: -1]:", "for y in xs[k - 2 :: -1]:",
           "right-to-left pass skips the prefix's last element"),
    Mutant("src/dropk/linear.py", "            stack.reverse()\n", "",
           "right-to-left maxima left newest-first"),
    Mutant("src/dropk/linear.py", "            stack.append(top)\n            stack.reverse()",
           "            stack.reverse()", "sentinel not put under the right-to-left maxima"),
    Mutant("src/dropk/linear.py", "rest.__setstate__(k)", "rest.__setstate__(k - 1)",
           "counted loop rereads a tuple's or list's last prefix element"),
    Mutant("src/dropk/linear.py", "if isinstance(xs, (tuple, list)):", "if True:",
           "a UTF-32 view's tail read through a positioned iterator"),
    Mutant("src/dropk/linear.py", "rest = xs[k:]",
           "rest = xs[k + 1 :] if type(xs) is memoryview else xs[k:]",
           "counted loop skips the element after a UTF-32 prefix"),
    Mutant("src/dropk/linear.py", "stack if isinstance(xs, list) else tuple(stack)",
           "stack", "a tuple input gets a list result"),
    Mutant("src/dropk/linear.py", "        top = y\n    stack.append(top)\n", "        top = y\n",
           "scan loses the held top when the input runs out"),
    Mutant("src/dropk/linear.py", "            if not k:\n                stack.append(top)\n",
           "            if not k:\n", "scan loses the held top when the budget runs out"),
    Mutant("src/dropk/linear.py", "top = stack.pop()\n            k -= 1",
           "top = stack.pop()\n            k -= 2", "each pop spends two deletions"),
    Mutant("src/dropk/linear.py", 'xs.encode("utf-32", "surrogatepass")', 'xs.encode("utf-32")',
           "strict UTF-32 codec"),
    Mutant("src/dropk/linear.py", "    if type(acc) is not type(rest):", "    if False:",
           "gsolve takes mixed kinds"),
    Mutant("src/dropk/linear.py", "solve_linear(k, acc[::-1] + rest)", "solve_linear(k, acc + rest)",
           "gsolve keeps acc newest-first"),
    Mutant("src/dropk/core.py", "tokens = sorted(set(alphabet))",
           "tokens = sorted(set(alphabet), reverse=True)", "sequences out of order"),
    Mutant("src/dropk/greedy.py", "    for _ in range(k):", "    for _ in range(min(k, 1)):",
           "solve_greedy steps at most once"),
    # the prefix rows shared by the naive oracle and the game
    Mutant("src/dropk/core.py", "del rows[shared + 1 :]", "del rows[shared + 2 :]",
           "prefix rows keep one stale row"),
    Mutant("src/dropk/core.py", "        if type(xs) is type(prev):",
           "        if prev is not None:", "shared prefix across sequence kinds"),
    Mutant("src/dropk/core.py", "        if shared:", "        if True:",
           "prefix rows kept when nothing is shared"),
    # the prefix-shared naive oracle
    Mutant("src/dropk/oracle.py", "max(row[k - 1], row[k] + c)", "min(row[k - 1], row[k] + c)",
           "oracle keeps the worse candidate"),
    Mutant("src/dropk/oracle.py", "max(row[k - 1], row[k] + c)",
           "max(row[k - 1], row[k - 1] + c)", "oracle extends the wrong row entry"),
    # the foot witness
    Mutant("src/dropk/greedy_condition.py", "len(xs) > 0 and", "len(xs) >= 0 and",
           "witness of the empty sequence asks for its foot"),
    Mutant("src/dropk/greedy_condition.py", "self.index == hill_foot(xs)",
           "self.index <= hill_foot(xs)", "witness index may lie before the foot"),
    Mutant("src/dropk/greedy_condition.py", "return self.target_length == len(xs) > 0 and",
           "return len(xs) > 0 and", "witness length not checked"),
    # the argument checks
    Mutant("src/dropk/greedy_condition.py",
           "    _require_witness(xs, witness)\n    ours = alter", "    ours = alter",
           "check_mono takes a wrong witness"),
    Mutant("src/dropk/greedy_condition.py",
           "    _require_witness(xs, witness)\n    return alter", "    return alter",
           "check_unfoot takes a wrong witness"),
    Mutant("src/dropk/greedy_condition.py", "    _require_witness(tail, witness)\n", "",
           "check_mono_aux takes a wrong witness"),
    Mutant("src/dropk/greedy_condition.py", "    if len(tail) == 0:", "    if False:",
           "check_mono_aux takes an empty tail"),
    Mutant("src/dropk/greedy_condition.py", "if k < 0 or n < 0:", "if k < 0 and n < 0:",
           "enumerate_plans takes one negative count"),
    Mutant("src/dropk/oracle.py",
           "    check_deletion_count(k, xs)\n    return solve_naive_all_k(xs)[k]",
           "    return solve_naive_all_k(xs)[k]", "solve_naive takes a negative k"),
    Mutant("src/dropk/cli.py", "    except ValueError:", "    except TypeError:",
           "--k that is not an integer gets argparse's message"),
    Mutant("src/dropk/cli.py", "if args.max_len < 1:", "if args.max_len < 0:",
           "verify takes --max-len 0"),
    # the checkers
    Mutant("src/dropk/greedy_condition.py",
           "return lex_le(apply_plan(xs, plan), apply_plan(xs, ours))", "return True",
           "check_mono always passes"),
    Mutant("src/dropk/greedy_condition.py", "return alter(plan, witness).actions[witness.index]",
           "return bool(alter(plan, witness))", "check_unfoot always passes"),
    # the exchange game
    Mutant("src/dropk/greedy_condition.py", "sequences(alphabet, max_len, 1), _double_row",
           "sequences(alphabet, max_len, 0), _double_row", "game stream starts at length 0"),
    Mutant("src/dropk/greedy_condition.py", "        if len(xs) != n:", "        if not n:",
           "game keeps the table of length 1"),
    Mutant("src/dropk/greedy_condition.py", "if a == KEEP)\n", "if a == DEL)\n",
           "game table reads bit i as deleted"),
    Mutant("src/dropk/greedy_condition.py", "return row + [r + c for r in row]",
           "return [r + c for r in row] + row", "game's subsequence halves swapped"),
    Mutant("src/dropk/greedy_condition.py", "maxima_checks += n", "maxima_checks += 1",
           "game counts one maxima check per sequence"),
    Mutant("src/dropk/greedy_condition.py", "a in kept and sum(a) == d and a[foot]",
           "a in kept and a[foot]", "sound ignores the deletion count"),
    Mutant("src/dropk/greedy_condition.py", "a in kept and sum(a) == d and a[foot]",
           "a in kept and sum(a) == d", "sound ignores the foot"),
    Mutant("src/dropk/greedy_condition.py", "a = tuple(_alter(actions, foot))",
           "a = _alter(actions, foot)", "rewrite not judged by its positions"),
    Mutant("src/dropk/greedy_condition.py", "if ours is None or subs[ours] < subs[theirs]:",
           "if ours is not None and subs[ours] < subs[theirs]:",
           "unsound rewrites are not counted"),
    Mutant("src/dropk/greedy_condition.py", "                    if first is None:\n",
           "                    if True:\n", "the last lost round is reported, not the first"),
    Mutant("src/dropk/greedy_condition.py", "                    if first is None:\n",
           "                    if first is None and ours is None:\n",
           "first counterexample ignores rounds lost on value"),
    Mutant("src/dropk/greedy_condition.py", "            for actions in group:\n",
           "            for actions in reversed(group):\n",
           "game rounds run in reverse plan order"),
    Mutant("src/dropk/greedy_condition.py", "[kept[a] for a in group if a[foot]]",
           "[kept[a] for a in group if not a[foot]]", "foot-deleting masks inverted"),
    Mutant("src/dropk/greedy_condition.py",
           "if max(map(result_of, deletes_foot)) < max(map(result_of, kept)):",
           "if max(map(result_of, deletes_foot)) <= max(map(result_of, kept)):",
           "maxima check counts ties"),
    Mutant("src/dropk/greedy_condition.py",
           "if max(map(result_of, deletes_foot)) < max(map(result_of, kept)):", "if False:",
           "maxima check dropped"),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _missing(mutant: Mutant) -> bool:
    return (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) != 1


def _start(mutant: Mutant | None) -> tuple[tempfile.TemporaryDirectory, subprocess.Popen]:
    """Start tier-1 with ``-x`` on a copy with ``mutant`` applied, or on a
    plain copy for ``None``, in a process group of its own."""
    tmp = tempfile.TemporaryDirectory()
    try:
        work = Path(tmp.name)
        _copy_tree(work)
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        suite = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
             "-p", "no:cacheprovider"],
            cwd=work, env=dict(os.environ, PYTHONPATH="src"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
    except BaseException:
        tmp.cleanup()
        raise
    return tmp, suite


def _stop(suite: subprocess.Popen) -> None:
    """Kill the suite's whole process group, so nothing it started lives on."""
    with suppress(ProcessLookupError):
        os.killpg(suite.pid, signal.SIGKILL)
    suite.wait()


def _outcome(suite: subprocess.Popen, started: float, limit: float) -> str | None:
    """``"passed"`` or ``"failed"`` once the suite has ended, ``"timeout"``
    once it has run ``limit`` seconds (its group is then killed), else None."""
    code = suite.poll()
    if code is not None:
        return "passed" if code == 0 else "failed"
    if time.perf_counter() - started < limit:
        return None
    _stop(suite)
    return "timeout"


def _run(mutants: list, limit: float, workers: int):
    """Yield ``(outcome, seconds)`` for each of ``mutants`` in list order,
    running up to ``workers`` suites at once."""
    waiting = list(enumerate(mutants))[::-1]
    running: dict = {}  # index -> (temporary copy, suite, start time)
    done: dict = {}  # index -> (outcome, seconds)
    try:
        for i in range(len(mutants)):
            while i not in done:
                while waiting and len(running) < workers:
                    j, mutant = waiting.pop()
                    running[j] = (*_start(mutant), time.perf_counter())
                time.sleep(0.05)
                for j, (tmp, suite, started) in list(running.items()):
                    outcome = _outcome(suite, started, limit)
                    if outcome is not None:
                        done[j] = (outcome, time.perf_counter() - started)
                        del running[j]
                        tmp.cleanup()
            yield done.pop(i)
    finally:
        # a SIGTERM, or an early close: nothing outlives the runner
        for tmp, suite, _ in running.values():
            _stop(suite)
            tmp.cleanup()


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python tests/mutants.py  (takes no arguments)", file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an exception: the running suites are killed
    # and their temporary copies removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [m for m in MUTANTS if _missing(m)]
    for m in missing:
        print(f"old text not found exactly once in {m.path}: {m.old!r} ({m.what})")
    ((baseline, seconds),) = _run([None], float("inf"), 1)
    if baseline != "passed":
        # every mutant would look killed
        print("tier-1 fails on an unmutated copy")
        return 1
    todo = [m for m in MUTANTS if m not in missing]
    limit = TIME_LIMIT_FACTOR * seconds
    print(f"unmutated tier-1: {seconds:.1f} s; each mutant is stopped after {limit:.0f} s",
          flush=True)
    survivors = []
    with closing(_run(todo, limit, os.cpu_count() or 1)) as runs:
        for m, (outcome, seconds) in zip(todo, runs):
            verdict = {"passed": "SURVIVED", "failed": "killed", "timeout": "timeout"}[outcome]
            print(f"{verdict:8} {seconds:5.1f} s  {m.path}: {m.what}", flush=True)
            if outcome == "passed":
                survivors.append(m)
    print(f"{len(MUTANTS)} mutants: {len(survivors)} survived, {len(missing)} not applicable")
    return 1 if survivors or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
