"""Spans around dropk's public functions, recorded from outside the package.

:class:`Tracer` replaces each traced function at every ``dropk`` module
attribute that holds it (``dropk.oracle.solve_naive_all_k`` as ``cli``
reaches it through ``oracle.``, but also any ``from .x import f`` copy),
and restores the originals on exit.  Spans (name, start, end, parent) are
kept in memory; the hot ``core`` helpers are only counted.

Run as a script, it is the traced form of ``python -m dropk``::

    python perfbench/spans.py SPANS_OUT solve --k 3 --file input.txt

which runs the CLI under a tracer and writes the spans, counts and the
exact scan step count to SPANS_OUT as JSON.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

TRACED = (
    "cli.main",
    "linear.solve_linear",
    "linear.count_steps",
    "oracle.solve_naive_all_k",
    "greedy.solve_greedy",
    "greedy_condition.verify_greedy_condition",
    "greedy_condition.foot_witness",
    "greedy_condition.check_mono_aux",
)
COUNTED = ("core.lex_le", "core.max_lex")
GAME = "greedy_condition.verify_greedy_condition"


def _resolve(dotted: str):
    module, attr = dotted.split(".")
    return getattr(importlib.import_module(f"dropk.{module}"), attr)


class Tracer:
    """Context manager that records spans while installed.

    ``spans`` holds ``[name, start_ns, end_ns, parent_index]`` lists, a
    parent of -1 marking a root.  ``solve_args`` keeps the arguments of
    every ``linear.solve_linear`` call so the exact step count can be
    taken after the traced work, with the untraced ``count_steps``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {name: [0] for name in COUNTED}
        self.solve_args: list[tuple] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> Tracer:
        for name in TRACED:
            fn = _resolve(name)
            self._replace(fn, self._span_wrapper(name, fn))
        for name in COUNTED:
            fn = _resolve(name)
            self._replace(fn, self._count_wrapper(self.counts[name], fn))
        return self

    def __exit__(self, *exc) -> None:
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()

    def _replace(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` in every dropk module namespace
        and in module-level dicts such as ``cli.ENGINES``."""
        for name, module in list(sys.modules.items()):
            if name != "dropk" and not name.startswith("dropk."):
                continue
            namespace = vars(module)
            tables = [namespace] + [v for v in namespace.values() if type(v) is dict]
            for table in tables:
                for key, value in list(table.items()):
                    if value is original:
                        table[key] = wrapper
                        self._patches.append((table, key, original))

    def _span_wrapper(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns
        record_args = self.solve_args.append if name == "linear.solve_linear" else None

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
                if record_args is not None:
                    record_args(args)

        return traced

    @staticmethod
    def _count_wrapper(cell: list, fn):
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def result(self) -> dict:
        """Spans, counts and the exact step count; call after the tracer
        exits.  ``post_ns`` is the time the step count took, which is not
        part of the traced work."""
        from dropk.linear import count_steps

        start = time.perf_counter_ns()
        steps = sum(count_steps(*args) for args in self.solve_args)
        return {
            "spans": self.spans,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "steps": steps,
            "post_ns": time.perf_counter_ns() - start,
        }


def layer_times(spans: list[list]) -> dict[str, dict]:
    """Per span name: number of calls, total and self time in ns.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
    return out


def verify_phases(spans: list[list]) -> dict[str, int]:
    """Split the root ``cli.main`` span at the edges of the exchange-game
    span: equivalence sweep before it, game inside, the rest after."""
    root = next((s for s in spans if s[0] == "cli.main" and s[3] == -1), None)
    game = next((s for s in spans if s[0] == GAME), None)
    if root is None or game is None:
        return {"equivalence": 0, "game": 0, "aux": 0}
    return {
        "equivalence": game[1] - root[1],
        "game": game[2] - game[1],
        "aux": root[2] - game[2],
    }


def _main(out_path: str, cli_args: list[str]) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    import dropk.cli

    if not Path(dropk.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"dropk imported from {dropk.cli.__file__}, not from {src}")
    with Tracer() as tracer:
        code = dropk.cli.main(cli_args)
    result = tracer.result()
    with open(out_path, "w") as f:
        json.dump(result, f, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1], sys.argv[2:]))
