#!/usr/bin/env python3
"""dropk benchmark: three seeded workloads, timed end to end, traced per module.

    python3 perfbench/run.py --workload cli-solve --seed 1 --seconds 20 --trace 0

Workloads (one client, closed loop: the next operation starts when the
previous one has finished):

- ``cli-solve``: one ``python -m dropk solve --k K --file F`` process per
  operation, cycling through four 1e6-element files.
- ``lib-scan``: one in-process ``linear.solve_linear`` or
  ``linear.count_steps`` call per operation on prebuilt 1e6-element
  tuples and lists.
- ``verify``: one ``python -m dropk verify --max-len 8`` process per
  operation.

The checkout measured is the one holding this file: children import its
``src`` through ``PYTHONPATH``.  Every output is compared with an
independent reference (``workloads.py``).  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` the operations alternate untraced and traced (``spans.py``)
and the JSON holds the per-layer metrics.  The lines before it are a
readable report, also written with the spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PYTHON = sys.executable
OP_TIMEOUT_S = 60
STARTUP_EVERY_S = 1.0
WORKLOADS = ("cli-solve", "lib-scan", "verify")


@dataclass
class Op:
    """One operation: its kind, wall time, whether its output was right,
    and for a traced operation the spans, counts and step count."""

    kind: str
    traced: bool
    wall_s: float
    ok: bool
    maxrss_kb: int = 0
    trace: dict = field(default_factory=dict)


class Launcher:
    """A persistent ``launcher.py`` child that starts every measured
    process, so their peak memory is not inflated by this one's."""

    def __init__(self, env: dict, workdir: Path):
        self.env = env
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [PYTHON, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env,
        )

    def run(self, argv: list[str]) -> tuple[dict, bytes]:
        """Run ``argv`` to completion; its reply and its stdout."""
        stdout, stderr = self.workdir / "stdout", self.workdir / "stderr"
        request = {"argv": argv, "env": self.env, "stdout": str(stdout),
                   "stderr": str(stderr), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        if reply["returncode"] != 0:
            err = stderr.read_bytes().decode("utf-8", "replace").strip()
            print(f"{' '.join(argv[1:4])}...: exit {reply['returncode']}: {err[-500:]}",
                  file=sys.stderr)
        return reply, stdout.read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def closed_loop(kinds, run_op, seconds: float, trace: bool, launcher: Launcher):
    """Run whole cycles over ``kinds`` until ``seconds`` have passed; with
    tracing, each untraced operation is followed by a traced one.

    After each cycle, fresh-interpreter start-up is sampled about once per
    ``STARTUP_EVERY_S`` of the cycle, so that the start-up samples and the
    operations see the same stretches of machine speed.
    """
    ops: list[Op] = []
    startup_s: dict[str, list[float]] = {"pass": [], "import": []}
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        for kind in kinds:
            ops.append(run_op(kind, False))
            if trace:
                ops.append(run_op(kind, True))
        pairs = max(1, round((time.perf_counter() - cycle_start) / STARTUP_EVERY_S))
        for _ in range(pairs):
            for key, code in (("pass", "pass"), ("import", "import dropk.cli")):
                reply, _ = launcher.run([PYTHON, "-c", code])
                startup_s[key].append(reply["wall_s"])
        if time.perf_counter() >= deadline:
            return ops, startup_s


def traced_child(launcher: Launcher, cli_args: list[str], workdir: Path):
    """Run the CLI under ``spans.py``; reply, stdout and the trace."""
    spans_path = workdir / "spans.json"
    reply, out = launcher.run([PYTHON, str(HERE / "spans.py"), str(spans_path), *cli_args])
    trace = json.loads(spans_path.read_text()) if reply["returncode"] == 0 else {}
    # the step count runs after the traced work; it is not part of the op
    reply["wall_s"] -= trace.get("post_ns", 0) / 1e9
    return reply, out, trace


# --- workloads -------------------------------------------------------------


def cli_solve(seed: int, seconds: float, trace: bool, launcher: Launcher, workdir: Path):
    import workloads

    cases = {}
    for name in workloads.CLI_SHAPES:
        shape = workloads.make_shape(name, seed)
        path = workdir / f"{name}.txt"
        path.write_text(shape.xs + "\n", encoding="utf-8")
        expected = (workloads.reference(shape.k, shape.xs) + "\n").encode("utf-8")
        cases[name] = (["solve", "--k", str(shape.k), "--file", str(path)], expected)

    def run_op(kind: str, traced: bool) -> Op:
        args, expected = cases[kind]
        if traced:
            reply, out, spans = traced_child(launcher, args, workdir)
        else:
            reply, out = launcher.run([PYTHON, "-m", "dropk", *args])
            spans = {}
        ok = reply["returncode"] == 0 and out == expected
        return Op(kind, traced, reply["wall_s"], ok, reply["maxrss_kb"], spans)

    ops, startup_s = closed_loop(workloads.CLI_SHAPES, run_op, seconds, trace, launcher)
    peak_kb = max(op.maxrss_kb for op in ops if not op.traced)
    return ops, startup_s, workloads.N, peak_kb


def lib_scan(seed: int, seconds: float, trace: bool, launcher: Launcher, workdir: Path):
    import workloads
    from dropk import linear
    from spans import Tracer

    shapes = {name: workloads.make_shape(name, seed) for name in workloads.LIB_SHAPES}
    expected = {name: workloads.reference(s.k, s.xs) for name, s in shapes.items()}
    first_steps: dict[str, int] = {}
    kinds = [f"{name}:{fn}" for name in workloads.LIB_SHAPES
             for fn in ("solve_linear", "count_steps")]

    def run_op(kind: str, traced: bool) -> Op:
        name, fn_name = kind.split(":")
        shape = shapes[name]
        spans = {}
        try:
            if traced:
                with Tracer() as tracer:
                    start = time.perf_counter()
                    out = getattr(linear, fn_name)(shape.k, shape.xs)
                    wall = time.perf_counter() - start
                spans = tracer.result()
            else:
                start = time.perf_counter()
                out = getattr(linear, fn_name)(shape.k, shape.xs)
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            return Op(kind, traced, 0.0, False)
        if fn_name == "solve_linear":
            ok = type(out) is type(shape.xs) and out == expected[name]
        else:
            ok = (workloads.steps_ok(out, shape.k, len(shape.xs))
                  and first_steps.setdefault(name, out) == out)
        return Op(kind, traced, wall, ok, 0, spans)

    ops, startup_s = closed_loop(kinds, run_op, seconds, trace, launcher)
    peak_kb = 0
    if not trace:
        # Peak memory of a fresh process that builds one input and runs
        # both calls on it; this process holds every input and reference.
        for name in workloads.LIB_SHAPES:
            reply, _ = launcher.run([PYTHON, str(HERE / "probe.py"), str(seed), name])
            if reply["returncode"] != 0:
                ops.append(Op(f"{name}:probe", False, 0.0, False))
            peak_kb = max(peak_kb, reply["maxrss_kb"])
    return ops, startup_s, workloads.N, peak_kb


def verify(seed: int, seconds: float, trace: bool, launcher: Launcher, workdir: Path):
    import workloads

    alphabet = workloads.verify_alphabet(seed)
    args = ["verify", "--max-len", str(workloads.VERIFY_MAX_LEN), "--alphabet", alphabet]

    def run_op(kind: str, traced: bool) -> Op:
        if traced:
            reply, out, spans = traced_child(launcher, args, workdir)
        else:
            reply, out = launcher.run([PYTHON, "-m", "dropk", *args])
            spans = {}
        ok = workloads.verify_output_ok(
            out.decode("utf-8", "replace"), reply["returncode"],
            workloads.VERIFY_MAX_LEN, len(alphabet))
        return Op(kind, traced, reply["wall_s"], ok, reply["maxrss_kb"], spans)

    ops, startup_s = closed_loop(["verify"], run_op, seconds, trace, launcher)
    peak_kb = max(op.maxrss_kb for op in ops if not op.traced)
    return ops, startup_s, None, peak_kb


RUNNERS = {"cli-solve": cli_solve, "lib-scan": lib_scan, "verify": verify}


# --- metrics ---------------------------------------------------------------


def check_children(launcher: Launcher) -> None:
    """Children must load this checkout's dropk; this first import also
    writes its bytecode cache, as an installed package would have one."""
    reply, out = launcher.run([PYTHON, "-c", "import dropk.cli; print(dropk.cli.__file__)"])
    loaded = Path(out.decode().strip()).resolve()
    if reply["returncode"] != 0 or not loaded.is_relative_to(SRC):
        raise SystemExit(f"children import dropk from {loaded}, not from {SRC}")


def by_kind(ops: list[Op], traced: bool) -> dict[str, list[Op]]:
    groups: dict[str, list[Op]] = {}
    for op in ops:
        if op.traced == traced and op.ok:
            groups.setdefault(op.kind, []).append(op)
    return groups


# The machine this was tuned on switches between two speeds about 50% apart
# every few seconds, and at times stays slow for minutes.  A run's median
# then moves by a quarter from run to run, so times are minimums.  Even
# minimums drift by a fifth between busy and quiet hours; divided by the
# fastest bare interpreter start of the same run, which no change to dropk
# can move, they drift by a few percent.  The raw times are in the report.
def latency_ms_min(ops) -> float:
    """Each kind's fastest operation, averaged over the kinds so that the
    number of operations of each kind cannot move the figure."""
    groups = by_kind(ops, traced=False).values()
    return 1e3 * statistics.fmean(min(op.wall_s for op in group) for group in groups)


def end_to_end(ops, startup_s, peak_kb) -> dict[str, tuple[float, str]]:
    return {
        "latency_over_startup": (latency_ms_min(ops) / 1e3 / min(startup_s["pass"]), "x"),
        "setup_s": (min(startup_s["import"]), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(ops, startup_s) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, each summed over one operation of every kind
    (a cycle), from the minimum over the traced operations of each kind.

    Also returns the per-kind breakdown as report lines."""
    from spans import COUNTED, GAME, TRACED, layer_times, verify_phases

    traced, untraced = by_kind(ops, traced=True), by_kind(ops, traced=False)
    rows = {}
    for kind, group in traced.items():
        per_op = []
        for op in group:
            layers = layer_times(op.trace["spans"])
            row = {"wall_ns": op.wall_s * 1e9, "steps": op.trace["steps"]}
            for name in TRACED:
                layer = layers.get(name, {"calls": 0, "self_ns": 0})
                row[f"{name}.calls"] = layer["calls"]
                row[f"{name}.self_ns"] = layer["self_ns"]
            for name in COUNTED:
                row[f"{name}.calls"] = op.trace["counts"][name]
            if layers.get(GAME):
                for phase, ns in verify_phases(op.trace["spans"]).items():
                    row[f"phase.{phase}_ns"] = ns
            per_op.append(row)
        # counts repeat exactly; times take the minimum over operations
        rows[kind] = {key: (statistics.median_low if key.endswith(("calls", "steps"))
                            else min)([r.get(key, 0) for r in per_op])
                      for key in per_op[0]}

    def cycle(key: str) -> float:
        return sum(row.get(key, 0) for row in rows.values())

    wall_ns = cycle("wall_ns")
    untraced_ns = sum(1e9 * min(op.wall_s for op in untraced[kind]) for kind in rows)
    interpreter_s = min(startup_s["pass"])
    solve_calls = cycle("linear.solve_linear.calls")
    solve_ns = cycle("linear.solve_linear.self_ns")
    steps = cycle("steps")
    m = {
        "startup.interpreter_ms": (1e3 * interpreter_s, "ms"),
        "startup.import_ms": (1e3 * (min(startup_s["import"]) - interpreter_s), "ms"),
        "op.traced_ms": (wall_ns / 1e6, "ms"),
        "trace.overhead_ms": ((wall_ns - untraced_ns) / 1e6, "ms"),
        "linear.solve_linear.self_ms": (solve_ns / 1e6, "ms"),
        "linear.solve_linear.us_per_call": (solve_ns / 1e3 / solve_calls, "us"),
        "linear.steps": (steps, "count"),
        "linear.ns_per_step": (solve_ns / steps, "ns"),
    }
    for name in TRACED + COUNTED:
        m[f"{name}.calls"] = (cycle(f"{name}.calls"), "count")
    for name in TRACED:
        m[f"{name}.self_pct"] = (100 * cycle(f"{name}.self_ns") / wall_ns, "%")
    for phase in ("equivalence", "game", "aux"):
        m[f"cli.verify.{phase}_pct"] = (100 * cycle(f"phase.{phase}_ns") / wall_ns, "%")

    lines = []
    for kind, row in rows.items():
        lines.append(f"  {kind}: traced {row['wall_ns'] / 1e6:.3f} ms, "
                     f"untraced {1e3 * min(op.wall_s for op in untraced[kind]):.3f} ms, "
                     f"linear.steps {row['steps']}")
        for name in TRACED:
            if row[f"{name}.calls"]:
                lines.append(f"    {name}: {row[f'{name}.calls']} calls, "
                             f"self {row[f'{name}.self_ns'] / 1e6:.3f} ms")
        for name in COUNTED:
            if row[f"{name}.calls"]:
                lines.append(f"    {name}: {row[f'{name}.calls']} calls")
        for phase in ("equivalence", "game", "aux"):
            if f"phase.{phase}_ns" in row:
                lines.append(f"    cli.verify.{phase}: {row[f'phase.{phase}_ns'] / 1e9:.3f} s")
    return m, lines


# --- provenance and output -------------------------------------------------


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dropk").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def report(args, prov, ops, startup_s, elements, metrics, layer_lines) -> list[str]:
    timed = [op for op in ops if not op.traced]
    failed = sum(not op.ok for op in ops)
    lines = [
        f"dropk benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        "provenance: " + json.dumps(prov),
        f"operations: {len(ops)} attempted, {failed} failed, "
        f"failed_ratio {failed / len(ops):.6f}",
        f"startup ({len(startup_s['import'])} samples each): python -c pass "
        f"median {1e3 * statistics.median(startup_s['pass']):.3f} ms, min {1e3 * min(startup_s['pass']):.3f} ms; "
        f"import dropk.cli median {1e3 * statistics.median(startup_s['import']):.3f} ms, "
        f"min {1e3 * min(startup_s['import']):.3f} ms",
    ]
    for kind, group in by_kind(ops, traced=False).items():
        walls = [op.wall_s * 1e3 for op in group]
        lines.append(f"  {kind}: {len(walls)} samples, latency median {statistics.median(walls):.3f} ms, "
                     f"min {min(walls):.3f} ms")
    walls = [op.wall_s * 1e3 for op in timed if op.ok]
    if walls:
        lines.append(f"latency_ms_min (each kind's fastest, mean over kinds): "
                     f"{latency_ms_min(ops):.3f} ms")
    if len(walls) >= 100:  # at least ten samples beyond the 90th percentile
        lines.append(f"latency_ms_p90 (all kinds pooled): "
                     f"{statistics.quantiles(walls, n=10)[8]:.3f} ms, {len(walls)} samples")
    if walls:
        per_s = len(walls) / (sum(walls) / 1e3)
        lines.append(f"throughput: {per_s:.4f} ops/s"
                     + (f", {elements * per_s:.1f} elements/s" if elements else ""))
    lines += layer_lines
    lines += [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dropk" / "__init__.py").is_file():
        print(f"error: no dropk sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dropk

    if not Path(dropk.__file__).resolve().is_relative_to(SRC):
        print(f"error: dropk imported from {dropk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    prov = provenance(args.seed)
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so repeat runs do the same work
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        launcher = Launcher(env, Path(tmp))
        try:
            check_children(launcher)
            ops, startup_s, elements, peak_kb = RUNNERS[args.workload](
                args.seed, args.seconds, bool(args.trace), launcher, Path(tmp))
        finally:
            launcher.close()

    try:
        if args.trace:
            metrics, layer_lines = per_layer(ops, startup_s)
        else:
            metrics, layer_lines = end_to_end(ops, startup_s, peak_kb), []
    except (ValueError, KeyError, ZeroDivisionError):
        # some kind has no correct operation left to measure
        traceback.print_exc()
        metrics, layer_lines = {}, []
    lines = report(args, prov, ops, startup_s, elements, metrics, layer_lines)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.txt").write_text("\n".join(lines) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            for op_id, op in enumerate(ops):
                for name, start, end, parent in op.trace.get("spans", ()):
                    f.write(json.dumps([op_id, op.kind, name, start, end, parent]) + "\n")
    print("\n".join(lines))
    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
