"""Acceptance suite: every contract criterion at its stated scale.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion exactly; no
tolerance is loosened here.  The sweeps are exhaustive over a 3-token
alphabet at the lengths given per criterion (c3b: 4 tokens), and c2 and
c5 run the same sweeps as ``dropk verify``.  This module takes about
2-4 s on Python 3.11.  c2 (280,483 cases, with the naive answers grown
from each shared prefix and one greedy step per sequence) takes
0.6-1.3 s and c6 about 0.7 s; c3 and c3b take a tenth to a quarter of a
second each.
"""

import random
import time

from dropk.core import drops, lex_le, max_lex, sequences
from dropk.greedy import better_global_counterexample, gstep, solve_greedy
from dropk.greedy_condition import (
    DelPlan,
    apply_plan,
    delfoot,
    foot_witness,
    verify_greedy_condition,
)
from dropk.linear import count_steps, solve_linear
from dropk.oracle import solve_naive
from dropk.verify import equivalence_sweep, mono_aux_sweep

ALPHABET = "123"


def _verdict(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_c1_worked_examples_reproduce_exactly():
    ok = (
        solve_naive(1, "6782334") == "782334"
        and solve_greedy(1, "6782334") == "782334"
        and solve_linear(1, "6782334") == "782334"
        and solve_naive(3, "6782334") == "8334"
        and solve_greedy(3, "6782334") == "8334"
        and solve_linear(3, "6782334") == "8334"
        and gstep("8766678") == "876678"
        and drops("abcd") == ["bcd", "acd", "abd", "abc"]
        and apply_plan("abcde", DelPlan.from_string("kdkdk")) == "ace"
    )
    _verdict("1 worked examples", ok)


def test_c2_engine_equivalence_three_tokens_up_to_nine():
    report = equivalence_sweep(9, ALPHABET)
    planned = sum(3**n * (n + 1) for n in range(10))
    _verdict(
        "2 engine equivalence |xs|<=9",
        report.violations == 0 and report.cases == planned,
        f"{report.cases} cases, {report.violations} mismatches",
    )


def test_c3_exchange_game_three_tokens_up_to_seven():
    report = verify_greedy_condition(7, ALPHABET)
    planned_cases = sum(3**n * (2**n - 1) for n in range(1, 8))
    planned_maxima = sum(3**n * n for n in range(1, 8))
    ok = (
        report.violations == 0
        and report.cases == planned_cases
        and report.maxima_checks == planned_maxima
    )
    _verdict(
        "3 exchange game |xs|<=7",
        ok,
        f"{report.cases} plan cases + {report.maxima_checks} maxima checks, "
        f"{report.violations} violations",
    )


def test_c3b_exchange_game_four_tokens_up_to_six():
    report = verify_greedy_condition(6, "1234")
    planned_cases = sum(4**n * (2**n - 1) for n in range(1, 7))
    planned_maxima = sum(4**n * n for n in range(1, 7))
    ok = (
        report.violations == 0
        and report.cases == planned_cases
        and report.maxima_checks == planned_maxima
    )
    _verdict(
        "3b exchange game over 4 tokens |xs|<=6",
        ok,
        f"{report.cases} plan cases + {report.maxima_checks} maxima checks, "
        f"{report.violations} violations",
    )


def test_c4_better_global_counterexample():
    xs, ys = "1934", "4234"
    best_drop_of_ys = max_lex(drops(ys))
    ok = (
        lex_le(xs, ys)
        and "934" in drops(xs)
        and best_drop_of_ys == "434"
        and not lex_le("934", "434")
        and better_global_counterexample(xs, ys) == "934"
    )
    _verdict("4 better-global violation on 1934/4234", ok)


def test_c5_prefix_dominance_lemma_up_to_six():
    report = mono_aux_sweep(6, ALPHABET)
    # a tail headed by the i-th smallest of 3 tokens takes 4 - i values of x
    planned = sum(3 ** (n - 1) * 6 for n in range(1, 7))
    _verdict(
        "5 prefix-dominance lemma |tail|<=6",
        report.violations == 0 and report.cases == planned,
        f"{report.cases} cases, {report.violations} violations",
    )


def test_c6_linear_step_bound_and_wall_time():
    sizes = [10**3, 10**4, 10**5, 10**6]
    bound_ok = True
    for n in sizes:
        for seed in (0, 1, 2):
            xs = "".join(random.Random(seed).choices("0123456789", k=n))
            k = n // 2
            steps = count_steps(k, xs)
            if steps > n + k + 1 or len(solve_linear(k, xs)) != n - k:
                bound_ok = False

    n = 10**6
    xs = "".join(random.Random(0).choices("0123456789", k=n))
    k = n // 2
    solve_linear(k, xs)  # warm-up
    start = time.perf_counter()
    solve_linear(k, xs)
    wall = time.perf_counter() - start
    _verdict(
        "6 linearity (steps <= n+k+1; n=1e6 under 1s)",
        bound_ok and wall < 1.0,
        f"wall={wall:.3f}s",
    )


def test_c7_foot_plan_matches_greedy_step_up_to_seven():
    cases = 0
    mismatches = 0
    for xs in sequences(ALPHABET, 7, 1):
        cases += 1
        if apply_plan(xs, delfoot(foot_witness(xs))) != gstep(xs):
            mismatches += 1
    _verdict(
        "7 foot plan == greedy step |xs|<=7",
        mismatches == 0,
        f"{cases} cases, {mismatches} mismatches",
    )
