"""The expanded form of run terms, for tests: an element of Z[Z^n] as a map
{exponent vector: coefficient} without zero coefficients."""

from topsectors.words import collect


def expand(terms):
    """The keys of every run, one per exponent vector, with equal keys
    merged and zero coefficients dropped."""
    return collect(
        (start[:gen] + (start[gen] + j,) + start[gen + 1 :], c)
        for start, gen, n, c in terms
        for j in range(n)
    )


def letters(word):
    """A word's single letters (name, +-1), left to right: each run of
    exponent n expanded to |n| letters."""
    return [(name, 1 if n > 0 else -1) for name, n in word.runs for _ in range(abs(n))]
