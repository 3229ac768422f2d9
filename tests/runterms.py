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
