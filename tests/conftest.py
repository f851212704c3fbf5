from itertools import combinations, product

from dropk.core import drops

# ASCII, Latin-1, BMP, astral and lone surrogate characters, drawn often
# enough to repeat (st.characters() never draws a surrogate)
MIXED_CHARS = "09az\u00e9\u00ff\u4e2d\U00010000\U0001f600\ud800\udcff\udfff"


def all_sequences(alphabet, max_len, min_len=0):
    """Every string over ``alphabet`` with min_len <= length <= max_len."""
    for n in range(min_len, max_len + 1):
        for raw in product(sorted(alphabet), repeat=n):
            yield "".join(raw)


def deleted_subsequences(xs, k):
    """All subsequences of xs of length len(xs) - k, as a set of strings."""
    n = len(xs)
    return {
        "".join(xs[i] for i in keep) for keep in combinations(range(n), n - k)
    }


def brute_naive(k, xs):
    """The largest subsequence of ``xs`` with ``k`` elements deleted, as
    the kind of ``xs``: the maximum over every choice of n - k kept
    positions, C(n, k) candidates from ``itertools.combinations``.  The
    brute-force reference for ``dropk.oracle``, which nothing in dropk
    runs."""
    best = max(combinations(xs, len(xs) - k))
    return "".join(best) if isinstance(xs, str) else type(xs)(best)


def brute_all_k(xs):
    """:func:`brute_naive` for every deletion count k = 0..len(xs)."""
    return [brute_naive(k, xs) for k in range(len(xs) + 1)]


def is_subsequence(sub, xs):
    it = iter(xs)
    return all(c in it for c in sub)


def is_foot(xs, i):
    """The hill foot's clauses, the tests' specification of it: ``i`` is
    a position of ``xs``, ``xs`` descends weakly up to it, and then comes
    a strict rise or the end.  ``dropk.greedy.hill_foot`` must find the
    one such position; ``FootWitness.valid_for`` decides through it."""
    return (0 <= i < len(xs)
            and all(not xs[j] < xs[j + 1] for j in range(i))
            and (i == len(xs) - 1 or xs[i] < xs[i + 1]))


# The paper's specification: delete one element at a time, in every
# order, keeping the whole multiset of candidates, and take the maximum.
# The solvers in dropk.oracle must agree with it; nothing in dropk runs it.


def step(xss):
    """One more deletion applied to every candidate.

    Concatenates ``drops(c)`` for each candidate in order; duplicates are
    kept.  An empty candidate raises, via :func:`dropk.core.drops`.
    """
    out = []
    for c in xss:
        out.extend(drops(c))
    return out


def spec_all_k(xs):
    """The largest candidate after every round of :func:`step`, for
    k = 0..len(xs): one cascade of n*(n-1)*...*(n-k+1) candidates
    serves every deletion count."""
    best, frontier = [xs], [xs]
    for _ in range(len(xs)):
        frontier = step(frontier)
        best.append(max(frontier))
    return best
