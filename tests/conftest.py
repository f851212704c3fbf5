from itertools import combinations, product

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


def is_subsequence(sub, xs):
    it = iter(xs)
    return all(c in it for c in sub)
