import hashlib
import itertools
import math
import random
import re

import pytest

from topsectors import zlinalg
from topsectors.classify2d import classify_free
from topsectors.complexes import catalog
from topsectors.xmod import target_catalog
from topsectors.zlinalg import (
    AbelianGroup,
    AffineLattice,
    IntMatrix,
    Lattice,
    LatticeQuotient,
    SmithSolver,
    SublatticeError,
    _smith_with_inverses,
    quotient,
    quotient_with_representatives,
    smith_normal_form,
    solve,
)


def random_matrix(rng, max_dim=8, lo=-50, hi=50):
    m = rng.randrange(1, max_dim + 1)
    n = rng.randrange(1, max_dim + 1)
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def random_unimodular(rng, n, steps=8):
    """A product of random elementary row operations and sign changes."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q = rng.randint(-2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def check_snf(A):
    dec = smith_normal_form(A)
    assert dec.U @ dec.S @ dec.V == A
    assert dec.S == _smith_with_inverses(A)[0]
    assert dec.U.is_unimodular
    assert dec.V.is_unimodular
    diag = dec.diagonal
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert dec.S.data[i][j] == 0
    assert all(d >= 0 for d in diag)
    for d1, d2 in zip(diag, diag[1:]):
        if d2 == 0:
            assert all(x == 0 for x in diag[diag.index(d2):])
            break
        assert d1 != 0 and d2 % d1 == 0
    return dec


def minors_gcd(A, k):
    """Brute-force gcd of all k x k minors."""
    g = 0
    for rows in itertools.combinations(range(A.rows), k):
        for cols in itertools.combinations(range(A.cols), k):
            sub = IntMatrix([[A.data[i][j] for j in cols] for i in rows])
            g = math.gcd(g, sub.det())
    return g


class TestIntMatrix:
    def test_matmul(self):
        A = IntMatrix([[1, 2], [3, 4]])
        B = IntMatrix([[0, 1], [1, 0]])
        assert A @ B == IntMatrix([[2, 1], [4, 3]])

    def test_empty_shapes(self):
        A = IntMatrix.zeros(0, 3)
        B = IntMatrix.zeros(3, 0)
        assert (A @ B).shape == (0, 0)
        assert (B @ A).shape == (3, 3)
        assert IntMatrix.zeros(0, 0).det() == 1

    def test_det(self):
        assert IntMatrix([[2, 4], [6, 8]]).det() == -8
        assert IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).det() == 0
        assert IntMatrix.identity(4).det() == 1

    def test_det_matches_permanent_expansion(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 5)
            A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            expansion = sum(
                (1 if _parity(p) else -1)
                * math.prod(A.data[i][p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert A.det() == expansion

    def test_inverse_unimodular(self):
        U = IntMatrix([[1, 2], [3, 7]])
        assert U @ U.inverse_unimodular() == IntMatrix.identity(2)
        rng = random.Random(29)
        for n in range(1, 7):
            for _ in range(10):
                A = random_unimodular(rng, n, steps=4 * n)
                inverse = A.inverse_unimodular()
                assert A @ inverse == IntMatrix.identity(n)
                assert inverse @ A == IntMatrix.identity(n)
        for bad in ([[2]], [[1, 2], [2, 4]], [[2, 0], [0, 1]], [[1, 2, 3], [0, 1, 4]]):
            with pytest.raises(ValueError):
                IntMatrix(bad).inverse_unimodular()

    def test_power_matches_repeated_products(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randrange(1, 5)
            A = random_unimodular(rng, n)
            B = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            inverse = A.inverse_unimodular()
            assert A**0 == IntMatrix.identity(n) == B**0
            assert A**1 == A and B**1 == B
            up, down, plain = IntMatrix.identity(n), IntMatrix.identity(n), IntMatrix.identity(n)
            for k in range(1, 10):
                up, down, plain = up @ A, down @ inverse, plain @ B
                assert A**k == up
                assert A**-k == down
                assert B**k == plain

    def test_power_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2]]) ** 2
        with pytest.raises(ValueError):
            IntMatrix([[2]]) ** -1  # not unimodular

    def test_from_json_needs_integers(self):
        assert IntMatrix.from_json([[1, -2], [0, 3]]) == IntMatrix([[1, -2], [0, 3]])
        for bad in ([[1.0, 2]], [[True, 2]], [["1", 2]], [[None]]):
            with pytest.raises(ValueError):
                IntMatrix.from_json(bad)


class TestProducts:
    """``apply`` and ``@`` against a naive triple loop."""

    @pytest.mark.parametrize(
        "m, k, n, bound",
        [
            (0, 3, 4, 9),
            (4, 3, 0, 9),
            (3, 0, 4, 9),
            (0, 0, 0, 9),
            (1, 1, 1, 9),
            (26, 26, 26, 9),
            (3, 5, 2, 10**50),
            (7, 1, 7, 10**50),
        ],
    )
    def test_against_triple_loop(self, m, k, n, bound):
        rng = random.Random(f"products-{m}-{k}-{n}-{bound}")
        A = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)]
        B = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
        vec = [rng.randint(-bound, bound) for _ in range(k)]
        product = [[0] * n for _ in range(m)]
        for i in range(m):
            for j in range(n):
                for t in range(k):
                    product[i][j] += A[i][t] * B[t][j]
        assert IntMatrix(A, cols=k) @ IntMatrix(B, cols=n) == IntMatrix(product, cols=n)
        image = tuple(sum(A[i][t] * vec[t] for t in range(k)) for i in range(m))
        assert IntMatrix(A, cols=k).apply(vec) == image
        assert IntMatrix(A, cols=k).apply(tuple(vec)) == image

    def test_mismatches_raise(self):
        A = IntMatrix([[1, 2, 3], [4, 5, 6]])
        for bad in ((1, 2), (1, 2, 3, 4), ()):
            with pytest.raises(ValueError, match="vector length mismatch"):
                A.apply(bad)
        for B in (IntMatrix.zeros(2, 2), IntMatrix.zeros(0, 3), IntMatrix.zeros(4, 1)):
            with pytest.raises(ValueError, match="shape mismatch"):
                A @ B
        with pytest.raises(ValueError, match="shape mismatch"):
            IntMatrix.zeros(0, 2) @ IntMatrix.zeros(0, 2)


def _parity(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return inversions % 2 == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix.zeros(0, -1),
        lambda: IntMatrix.zeros(-2, 3),
        lambda: IntMatrix.identity(-3),
        lambda: IntMatrix([], cols=-5),
        lambda: IntMatrix.from_columns([], height=-2),
        lambda: quotient(-1, []),
        lambda: AbelianGroup.free(-1),
    ],
    ids=["zeros-cols", "zeros-rows", "identity", "init", "from_columns", "quotient", "free"],
)
def test_negative_size_is_refused(build):
    with pytest.raises(ValueError, match="negative"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix([[1.5, "7"], [True, 2]]),
        lambda: Lattice(2, [(2.9, 0)]),
        lambda: quotient(1, [(2.5,)]),
    ],
    ids=["IntMatrix", "Lattice", "quotient"],
)
def test_non_integer_entries_are_refused(build):
    # Floats, bools and strings are refused, as in json_int, not truncated.
    with pytest.raises(ValueError, match="expected an integer"):
        build()


class TestSmithNormalForm:
    def test_identity(self):
        dec = check_snf(IntMatrix.identity(2))
        assert dec.diagonal == (1, 1)

    def test_frozen_example(self):
        # gcd of entries is 2, |det| = 8, so the factors are (2, 4).
        dec = check_snf(IntMatrix([[2, 4], [6, 8]]))
        assert dec.diagonal == (2, 4)

    def test_zero_matrix(self):
        dec = check_snf(IntMatrix.zeros(2, 3))
        assert dec.diagonal == (0, 0)

    @pytest.mark.parametrize("A", [IntMatrix([], cols=4), IntMatrix([[]] * 3), IntMatrix([])])
    def test_empty_shapes(self, A):
        dec = check_snf(A)
        assert dec.U == IntMatrix.identity(A.rows) and dec.V == IntMatrix.identity(A.cols)

    def test_random_reconstruction(self):
        rng = random.Random(97)
        for _ in range(120):
            check_snf(random_matrix(rng))

    def test_divisibility_against_minor_gcds(self):
        # product of the first k invariant factors == gcd of k x k minors
        rng = random.Random(101)
        for _ in range(60):
            A = random_matrix(rng, max_dim=4, lo=-9, hi=9)
            diag = check_snf(A).diagonal
            prod = 1
            for k in range(1, min(A.shape) + 1):
                prod *= diag[k - 1]
                assert abs(prod) == minors_gcd(A, k)


def oracle_matrices(rng, kind, count=15, max_dim=12):
    """Seeded matrices up to max_dim x max_dim of one kind: zero, square
    singular, rank-deficient (a product through a narrower middle) or
    random of any shape."""
    out = []
    for _ in range(count):
        m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
        if kind == "zero":
            rows = [[0] * n for _ in range(m)]
        elif kind == "singular":
            n = m
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            c = rng.choice((-2, 3))
            rows[-1] = [c * x for x in rows[0]] if m > 1 else [0]
        elif kind == "rank_deficient":
            r = rng.randint(1, max(1, min(m, n) - 1))
            L = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
            R = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            rows = [[sum(L[i][k] * R[k][j] for k in range(r)) for j in range(n)] for i in range(m)]
        else:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        out.append(IntMatrix(rows))
    return out


class TestSmithAgainstSympy:
    """Differential oracle, for tests only: sympy's invariant factors."""

    @pytest.mark.parametrize("kind", ["zero", "singular", "rank_deficient", "any_shape"])
    def test_invariant_factors(self, kind):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(f"snf-{kind}")
        for A in oracle_matrices(rng, kind):
            if kind == "singular":
                assert A.det() == 0
            dec = check_snf(A)
            expected = invariant_factors(sympy.Matrix([list(r) for r in A.data]), domain=sympy.ZZ)
            assert dec.diagonal == tuple(abs(int(x)) for x in expected)


def _transform_bits(dec):
    """Bit length of the largest entry of U and V."""
    return max(abs(x).bit_length() for X in (dec.U, dec.V) for row in X.data for x in row)


def _hadamard_bits(A):
    """Bit length of a Hadamard bound on A's minors: the product of its
    min(m, n) largest row norms, each rounded up."""
    norms = sorted((math.isqrt(sum(x * x for x in row)) + 1 for row in A.data), reverse=True)
    return math.prod(norms[: min(A.shape)]).bit_length()


def test_transform_entries_stay_near_the_hadamard_bound():
    # The sweep over A itself gave 823 and 4620 bits at n = 20 and 40.  A
    # check of the growth, not a bound that holds for every matrix: when
    # the Hermite form has two or more pivots other than 1, the sweep over
    # that small block can multiply quotients as long as det A, and U or V
    # then reach about twice the bits (498 against a bound of 205 + 64
    # for random.Random(7), n = 40).
    cases = []
    for n in (20, 40):
        rng = random.Random(1)
        cases.append(IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]))
    rng = random.Random(1)
    cases.append(IntMatrix([[rng.randint(-9, 9) for _ in range(12)] for _ in range(30)]))
    left = [[rng.randint(-9, 9) for _ in range(18)] for _ in range(30)]
    right = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(18)]
    cases.append(IntMatrix(left) @ IntMatrix(right))  # 30 x 30 of rank 18
    for A in cases:
        dec = check_snf(A)
        assert _transform_bits(dec) <= _hadamard_bits(A) + 64


def _pinned_cases():
    """One seeded 12 x 12 matrix and one 9 x 16 matrix of rank 5, each with
    a solvable right-hand side."""
    rng = random.Random(20261018)
    square = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    left = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(9)]
    right = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(5)]
    deficient = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    cases = []
    for rows in (square, deficient):
        x0 = [rng.randint(-9, 9) for _ in range(len(rows[0]))]
        cases.append((IntMatrix(rows), tuple(sum(a * x for a, x in zip(row, x0)) for row in rows)))
    return cases


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of (U, S, V) and of solve(A, b) for each pinned case.  They fix the
# exact sequence of elementary operations: of the Smith reduction of A for
# solve, and of the Hermite form and its reduction for smith_normal_form.  A
# deliberate change of either updates them and says so in CHANGES.md.
PINNED_DIGESTS = [
    (
        "aef6e2c0607f7b7264bbf573097bf947a8b25d53bc0acff7b726a6c67ca28712",
        "49dd14e889fc481aba0a4027a3b15f0d90997dc81dbe287ebfe64f90099cc1c6",
    ),
    (
        "ea95e0c021135932acdd396b692e8d49e64415bcfdd69e55832c3bda20f2f377",
        "8edc8f07b5f69079071ceb9cf38e126e13711938dd89259a36ad1b1b194a3415",
    ),
]


def test_pinned_operation_order():
    for (A, b), (snf_digest, solve_digest) in zip(_pinned_cases(), PINNED_DIGESTS):
        dec = smith_normal_form(A)
        assert _digest((dec.U.data, dec.S.data, dec.V.data)) == snf_digest
        assert _digest(solve(A, b)) == solve_digest


def _unit_rich_cases():
    """One genus 4 -> rp2 sector's 9 x 16 coordinate matrix C (eight [1, 1]
    blocks and one row across them), and a seeded 7 x 9 matrix whose first
    four rows hold no unit while its fifth does."""
    last = [1, -1, 0, 0, 0, 0, -1, 1, 0, 0, 0, 0, 1, -1, -1, 1]
    sector = [[int(j // 2 == i) for j in range(16)] for i in range(8)] + [last]
    rng = random.Random(16)
    no_unit = [x for x in range(-9, 10) if abs(x) != 1]
    rows = [[rng.choice(no_unit) for _ in range(9)] for _ in range(4)]
    rows.append([rng.choice(no_unit) for _ in range(9)])
    rows[4][5] = -1
    rows += [[rng.randint(-9, 9) for _ in range(9)] for _ in range(2)]
    return [IntMatrix(sector), IntMatrix(rows)]


# sha256 of the outputs of ``_smith_with_transforms`` for every subset of
# the transforms, in combinations order, for each unit-rich case: the pivot
# search that stops at the first unit keeps the operations of the search
# that scanned every row.
UNIT_RICH_DIGESTS = [
    "ad4a31889b1866ef63bcaece8813dac181e37abff2487849aa83f3c7bdea86c9",
    "e57e064c9ed94b89ee9426fa157919a2a39f3105a2d6c312452acee12d2374f5",
]

# Each transform as one replay of the sweep's log on identity rows:
# (row or column steps, transposed, inverse).  The row steps multiply to
# U^-1 and the column steps to V^-T.
TRANSFORM_REPLAYS = {"V": (1, True, True), "Uinv": (0, False, False), "Vinv": (1, True, False)}


def _smith_with_transforms(A, names):
    """S and then, in the order V, Uinv, Vinv, the transforms in ``names``,
    each replayed from the log of one Smith reduction of A."""
    logs = ([], [])
    out = list(_smith_with_inverses(A, logs))
    for name, (side, transposed, inverse) in TRANSFORM_REPLAYS.items():
        if name in names:
            size = A.shape[side]
            X = zlinalg._replay(logs[side], zlinalg._identity_rows(size), transposed, inverse)
            out.append(IntMatrix(X, cols=size))
    return tuple(out)


def _transform_subsets():
    names = tuple(TRANSFORM_REPLAYS)
    return [s for r in range(len(names) + 1) for s in itertools.combinations(names, r)]


def test_pinned_unit_rich_operation_order():
    for A, expected in zip(_unit_rich_cases(), UNIT_RICH_DIGESTS):
        outs = [tuple(X.data for X in _smith_with_transforms(A, s)) for s in _transform_subsets()]
        assert _digest(outs) == expected


def _sweep_step_cases():
    """A seeded 40 x 40 whose sweep takes 371 of its 410 rounds on non-unit
    pivots, a 2 x 2 and a 3 x 3 diagonal that take the divisibility branch,
    and the genus 4 sector matrix of ``_unit_rich_cases``."""
    rng = random.Random(40)
    dense = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    small = [[[2, 0], [0, 3]], [[4, 0, 0], [0, 6, 0], [0, 0, 10]]]
    return [IntMatrix(dense), *map(IntMatrix, small), _unit_rich_cases()[0]]


# sha256 of (S, row steps, column steps) of each sweep: the logged steps
# themselves, which U, V and ``solve`` pin only through their products.
SWEEP_STEP_DIGESTS = [
    "d08739d0a8cadd31a21d0a28250d8d649a86688f3bdf19c7d990a5a8caeef47c",
    "387bcb068bba543fe7c4c3b2b68a83f34d04f925504e11bea21c229576e69629",
    "bb75e224e7b687a79f0bf9d0b2a5145797f9a4fb844f3a5c131dd76330cc0f32",
    "01231e4e0aac2250bc9bddbab675cc2a34444d3e5fe909267e9caa7f2c54ffce",
]


def test_pinned_sweep_steps():
    for A, expected in zip(_sweep_step_cases(), SWEEP_STEP_DIGESTS, strict=True):
        logs = ([], [])
        S, = _smith_with_inverses(A, logs)
        assert _digest((S.data, *logs)) == expected


def _reference_smith(A):
    """S, U, V, Uinv, Vinv by the Smith reduction with the pivot search that
    scans every row of the block: the least nonzero |x| of each row
    (``lows``), then the first row holding the least of those.  It updates
    every row in a column operation and always runs the divisibility pass.
    U and Vinv are built transposed."""
    m, n = A.rows, A.cols
    D = [list(row) for row in A.data]
    Ut, V, Uinv, Vinvt = ([[int(i == j) for j in range(s)] for i in range(s)] for s in (m, n, m, n))

    def add(same, inverse, i, j, q):
        for X in same:
            X[i] = [a + q * b for a, b in zip(X[i], X[j])]
        for X in inverse:
            X[j] = [a - q * b for a, b in zip(X[j], X[i])]

    k = 0
    while k < min(m, n):
        lows = [min(filter(None, map(abs, row[k:])), default=0) for row in D[k:]]
        low = min(filter(None, lows), default=0)
        if not low:
            break
        i = k + lows.index(low)
        j = k + [abs(x) for x in D[i][k:]].index(low)
        if i != k:
            for X in (D, Uinv, Ut):
                X[k], X[i] = X[i], X[k]
        if j != k:
            for row in D:
                row[k], row[j] = row[j], row[k]
            for X in (Vinvt, V):
                X[k], X[j] = X[j], X[k]
        if D[k][k] < 0:
            for X in (D, Uinv, Ut):
                X[k] = [-x for x in X[k]]
        pivot = D[k][k]
        dirty = False
        for i in range(k + 1, m):
            if D[i][k]:
                add((D, Uinv), (Ut,), i, k, -(D[i][k] // pivot))
                dirty = dirty or D[i][k] != 0
        for j in range(k + 1, n):
            if D[k][j]:
                q = -(D[k][j] // pivot)
                for row in D:
                    row[j] += q * row[k]
                add((Vinvt,), (V,), j, k, q)
                dirty = dirty or D[k][j] != 0
        if dirty:
            continue
        offender = next((i for i in range(k + 1, m) if any(x % pivot for x in D[i][k + 1:])), None)
        if offender is None:
            k += 1
        else:
            add((D, Uinv), (Ut,), k, offender, 1)
    return {
        "S": IntMatrix(D, cols=n),
        "U": IntMatrix(zip(*Ut), cols=m),
        "V": IntMatrix(V, cols=n),
        "Uinv": IntMatrix(Uinv, cols=m),
        "Vinv": IntMatrix(zip(*Vinvt), cols=n),
    }


def _unit_pivot_matrices():
    """2000 seeded matrices up to 8 x 8, dense in 0 and +-1, among them
    empty, zero and rectangular ones."""
    rng = random.Random("unit-pivot")
    palettes = [(0,), (0, 1, -1), (0, 0, 1, -1, 2), (0, 0, 1, -1, 1, -1, 2, -3, 4, 6)]
    for t in range(2000):
        m, n = rng.randrange(9), rng.randrange(9)
        palette = palettes[t % len(palettes)]
        rows = [[rng.choice(palette) for _ in range(n)] for _ in range(m)]
        yield IntMatrix(rows, cols=n)


def test_smith_matches_the_reference_pivot_search():
    # S and the three transforms replayed from the sweep's log equal the
    # reference's matrices.
    names = tuple(TRANSFORM_REPLAYS)
    for A in _unit_pivot_matrices():
        ref = _reference_smith(A)
        assert _smith_with_transforms(A, names) == (ref["S"], *(ref[name] for name in names))


def _padded_diagonal(S, length):
    return [S.data[i][i] for i in range(min(S.shape))] + [0] * (length - min(S.shape))


def _reference_solution(ref, b):
    """V^-1 (S^-1 U^-1 b) by the reference's matrices, or None when some
    entry of U^-1 b is not a multiple of its diagonal entry."""
    S = ref["S"]
    diag = _padded_diagonal(S, S.rows)
    y = ref["Uinv"].apply(b)
    if any(yi % d if d else yi for d, yi in zip(diag, y)):
        return None
    z = [yi // d if d else 0 for d, yi in zip(diag, y)][: S.cols]
    return ref["Vinv"].apply(z + [0] * (S.cols - len(z)))


def test_replayed_inverses_match_the_reference_matrices():
    # On the same matrices, the solver's particular solutions and kernel and
    # the quotient's class coordinates, replayed from the reduction's log,
    # equal the products with the reference's U^-1 and V^-1 matrices.
    rng = random.Random("replay")
    for A in _unit_pivot_matrices():
        ref = _reference_smith(A)
        m, n = A.shape
        diag = _padded_diagonal(ref["S"], max(m, n))
        solver = SmithSolver(A)
        assert solver.kernel == [ref["Vinv"].column(j) for j in range(n) if diag[j] == 0]
        solvable = A.apply([rng.randint(-5, 5) for _ in range(n)])
        assert solver.particular(solvable) == _reference_solution(ref, solvable) is not None
        # U e_i is unsolvable at a diagonal entry other than 1.
        off = [ref["U"].column(i) for i in range(m) if diag[i] != 1][:1]
        for b in off + [tuple(rng.randint(-9, 9) for _ in range(m))]:
            assert solver.particular(b) == _reference_solution(ref, b)
        assert all(_reference_solution(ref, b) is None for b in off)

        # C = A, read in the standard basis of Z^m.
        identity = IntMatrix.identity(m).data
        quot = LatticeQuotient(AffineLattice.from_solution((0,) * m, identity), A.columns())
        kept = [i for i in range(m) if diag[i] != 1]
        assert quot.group.invariant_factors == tuple(diag[i] for i in kept)
        assert quot.generator_vectors == [ref["U"].column(i) for i in kept]
        for _ in range(3):
            v = tuple(rng.randint(-20, 20) for _ in range(m))
            y = ref["Uinv"].apply(v)
            expected = tuple(y[i] % diag[i] if diag[i] else y[i] for i in kept)
            assert quot.class_coords(v) == expected


def test_solver_and_quotient_reduce_once_without_inverses(monkeypatch):
    # One Smith reduction each, and no transform built: every later vector
    # is replayed from its log.  Nor does a classification build any.
    sweeps, whole_rows = [], []
    real_smith, real_replay = zlinalg._smith_with_inverses, zlinalg._replay

    def recorded_smith(*args, **kwargs):
        sweeps.append(args[0].shape)
        return real_smith(*args, **kwargs)

    def recorded_replay(log, x, *args, **kwargs):
        whole_rows.append(bool(x) and isinstance(x[0], list))
        return real_replay(log, x, *args, **kwargs)

    monkeypatch.setattr(zlinalg, "_smith_with_inverses", recorded_smith)
    monkeypatch.setattr(zlinalg, "_replay", recorded_replay)
    A = IntMatrix([[2, 4, 4, 1], [-6, 6, 12, 0], [10, -4, -16, 3]])
    solver = SmithSolver(A)
    assert solver.particular(A.apply((1, 2, 3, 4))) is not None and len(solver.kernel) == 1
    assert len(sweeps) == 1
    ambient = AffineLattice.from_solution((0, 0, 0), IntMatrix.identity(3).data)
    quot = LatticeQuotient(ambient, A.columns())
    quot.class_coords((5, -7, 9))
    quot.representatives()
    assert len(sweeps) == 2
    classify_free(catalog("genus_surface", g=2), target_catalog("rp2"))
    assert len(sweeps) > 2
    assert whole_rows and not any(whole_rows)


class TestSolve:
    def test_parity_obstruction(self):
        assert solve(IntMatrix([[2]]), (3,)) is None

    def test_single_equation(self):
        particular, kernel = solve(IntMatrix([[2]]), (4,))
        assert particular == (2,)
        assert kernel == []

    def test_kernel(self):
        particular, kernel = solve(IntMatrix([[1, 1]]), (0,))
        assert particular == (0, 0)
        assert len(kernel) == 1
        assert kernel[0] in ((1, -1), (-1, 1))

    def test_no_constraints(self):
        particular, kernel = solve(IntMatrix.zeros(0, 2), ())
        assert particular == (0, 0)
        assert len(kernel) == 2

    def test_random_solutions_verify(self):
        rng = random.Random(13)
        for _ in range(100):
            A = random_matrix(rng, max_dim=4, lo=-6, hi=6)
            x = tuple(rng.randint(-5, 5) for _ in range(A.cols))
            b = A.apply(x)
            sol = solve(A, b)
            assert sol is not None
            particular, kernel = sol
            assert A.apply(particular) == b
            for k in kernel:
                assert A.apply(k) == tuple(0 for _ in range(A.rows))
            # the known solution must be particular + integer kernel combo
            lat = Lattice(A.cols, kernel)
            diff = tuple(a - b_ for a, b_ in zip(x, particular))
            assert diff in lat

    def test_solution_set_complete_small(self):
        # On tiny instances, every box solution is reachable from the
        # particular one through the kernel lattice.
        rng = random.Random(17)
        for _ in range(40):
            m, n = rng.randrange(1, 4), rng.randrange(1, 4)
            A = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            b = A.apply(tuple(rng.randint(-2, 2) for _ in range(n)))
            sol = solve(A, b)
            assert sol is not None
            particular, kernel = sol
            lat = Lattice(n, kernel)
            for candidate in itertools.product(range(-4, 5), repeat=n):
                if A.apply(candidate) == b:
                    diff = tuple(c - p for c, p in zip(candidate, particular))
                    assert diff in lat


class TestAbelianGroup:
    def test_normal_form(self):
        assert AbelianGroup.from_factors([4, 2]).invariant_factors == (2, 4)
        assert AbelianGroup.from_factors([2, 3]).invariant_factors == (6,)
        assert AbelianGroup.from_factors([1, 1]).is_trivial
        assert AbelianGroup.from_factors([0, 2]).invariant_factors == (2, 0)

    def test_non_chain_inputs(self):
        assert AbelianGroup.from_factors([4, 6, 10]).invariant_factors == (2, 2, 60)
        assert AbelianGroup.from_factors([-6, 0, 4, 1, 9]).invariant_factors == (6, 36, 0)
        assert AbelianGroup.from_factors([]).is_trivial

    def test_matches_snf_of_diagonal(self):
        # Reference: the invariant factors of diag(factors), 1s dropped.
        rng = random.Random(11)
        for _ in range(200):
            factors = [rng.choice([0, 1, -2, 3, 4, 6, 8, 9, 10, 12, 15, 25, 36]) for _ in range(rng.randint(0, 6))]
            n = len(factors)
            diag = IntMatrix([[factors[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)
            expected = tuple(d for d in smith_normal_form(diag).diagonal if d != 1)
            assert AbelianGroup.from_factors(factors).invariant_factors == expected, factors

    def test_order(self):
        assert AbelianGroup.from_factors([2, 4]).order() == 8
        assert AbelianGroup.free(1).order() is None
        assert AbelianGroup.trivial().order() == 1

    def test_str(self):
        assert str(AbelianGroup.from_factors([2, 0])) == "Z_2 x Z"
        assert str(AbelianGroup.trivial()) == "1"


class TestQuotient:
    def test_z_mod_2(self):
        assert quotient(1, [(2,)]) == AbelianGroup((2,))

    def test_free(self):
        assert quotient(2, []) == AbelianGroup((0, 0))

    def test_diag(self):
        assert quotient(2, [(2, 0), (0, 4)]) == AbelianGroup((2, 4))


class TestLattice:
    def test_membership(self):
        lat = Lattice(2, [(2, 0), (0, 2)])
        assert (4, -2) in lat
        assert (1, 0) not in lat

    def test_reduce_canonical(self):
        lat = Lattice(2, [(2, 0), (0, 2)])
        seen = {}
        for v in itertools.product(range(-4, 5), repeat=2):
            r = lat.reduce(v)
            key = (v[0] % 2, v[1] % 2)
            seen.setdefault(key, r)
            assert seen[key] == r

    def test_reduce_is_coset_representative(self):
        rng = random.Random(29)
        for _ in range(50):
            dim = rng.randrange(1, 5)
            vectors = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(rng.randrange(4))]
            lat = Lattice(dim, vectors)
            v = [rng.randint(-10, 10) for _ in range(dim)]
            r = lat.reduce(v)
            assert tuple(a - b for a, b in zip(v, r)) in lat
            assert lat.reduce(r) == r

    def test_gcd_pivot_replacement(self):
        lat = Lattice(1, [(4,), (6,)])
        assert (2,) in lat
        assert (1,) not in lat

    def test_coords_in_basis(self):
        lat = Lattice(3, [(2, 0, 1), (0, 3, 1)])
        basis = lat.basis()
        v = tuple(2 * basis[0][i] - basis[1][i] for i in range(3))
        coords = lat.coords_in_basis(v)
        assert coords == (2, -1)
        assert lat.coords_in_basis((1, 1, 1)) is None

    def test_hermite_form_of_random_inputs(self):
        # The basis is the unique row Hermite normal form of the span: pivots
        # strictly increase and are positive, entries above a pivot lie in
        # [0, pivot), and the rows span exactly the inputs.
        rng = random.Random(41)
        for _ in range(300):
            dim = rng.randrange(1, 6)
            vectors = [
                tuple(rng.randint(-20, 20) for _ in range(dim))
                for _ in range(rng.randrange(7))
            ]
            if vectors and rng.random() < 0.3:
                vectors.append(tuple(2 * a - 3 * b for a, b in zip(vectors[0], vectors[-1])))
            lat = Lattice(dim, vectors)
            basis = lat.basis()
            pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
            assert pivots == sorted(set(pivots))
            for i, (row, p) in enumerate(zip(basis, pivots)):
                assert row[p] > 0
                assert all(0 <= above[p] < row[p] for above in basis[:i])
            assert all(v in lat for v in vectors)
            A = IntMatrix.from_columns(vectors, height=dim)
            assert all(solve(A, row) is not None for row in basis)
            rng.shuffle(vectors)
            assert Lattice(dim, vectors).basis() == basis

    @staticmethod
    def _floor_hermite(dim, vectors):
        """The row Hermite basis by Euclid with floor quotients throughout:
        at each column the rows nonzero there reduce each other by the one
        of least |entry| until one is left, which, made positive, is the
        next basis row, and the earlier basis rows are reduced into
        [0, pivot) at its column."""
        def take(row, pivot, p):
            q = row[p] // pivot[p]
            row[p:] = [a - q * b for a, b in zip(row[p:], pivot[p:])]

        basis, pending = [], [list(v) for v in vectors]
        for p in range(dim):
            active = [row for row in pending if row[p]]
            pending = [row for row in pending if not row[p]]
            while len(active) > 1:
                pivot = min(active, key=lambda row: abs(row[p]))
                for row in active:
                    if row is not pivot:
                        take(row, pivot, p)
                pending += [row for row in active if not row[p]]
                active = [row for row in active if row[p]]
            if active:
                pivot = active[0]
                if pivot[p] < 0:
                    pivot[p:] = [-x for x in pivot[p:]]
                for row in basis:
                    take(row, pivot, p)
                basis.append(pivot)
        return [tuple(row) for row in basis]

    def test_hermite_form_matches_floor_euclid(self):
        # Remainders exactly half a pivot: 6, -6, 10 and 14 against 4 or
        # -4, in the first column and in a later one.  Entries 2 and -2
        # above a pivot 4 must come out as 2 by the floor.  Then seeded
        # inputs with negative pivots and repeated and dependent rows.
        cases = [
            (1, [(4,), (2,), (-6,)]),
            (1, [(4,), (6,), (-6,), (10,)]),
            (2, [(-4, 1), (6, 0), (-6, 3), (10, -1)]),
            (3, [(0, -4, 1), (0, 6, 1), (0, -6, 2), (0, 14, -7), (0, -4, 1)]),
            (2, [(1, 2), (0, 4)]),
            (2, [(1, -2), (0, -4)]),
        ]
        rng = random.Random(4312)
        for _ in range(400):
            dim = rng.randint(1, 12)
            vectors = [
                [rng.randint(-50, 50) for _ in range(dim)] for _ in range(rng.randint(0, 14))
            ]
            if vectors:
                u, v = rng.choice(vectors), rng.choice(vectors)
                vectors.append(list(u))
                vectors.append([rng.randint(-3, 3) * a - rng.randint(-3, 3) * b for a, b in zip(u, v)])
                if rng.random() < 0.5:
                    vectors[0][0] = -rng.choice((2, 4, 6))
            cases.append((dim, vectors))
        ladder = random.Random(1)
        cases.append((40, [[ladder.randint(-9, 9) for _ in range(40)] for _ in range(40)]))
        for dim, vectors in cases:
            assert Lattice(dim, vectors).basis() == self._floor_hermite(dim, vectors), (dim, vectors)


class TestLatticeQuotient:
    def test_z_mod_2z(self):
        amb = AffineLattice.from_solution((0,), [(1,)])
        q = quotient_with_representatives(amb, [(2,)])
        assert q.group == AbelianGroup((2,))
        assert sorted(q.representatives()) == [(0,), (1,)]
        assert q.same_class((0,), (4,))
        assert not q.same_class((0,), (3,))

    def test_free_plane(self):
        amb = AffineLattice.from_solution((0, 0), [(1, 0), (0, 1)])
        q = quotient_with_representatives(amb, [])
        assert q.group == AbelianGroup((0, 0))
        assert len(q.free_generator_vectors()) == 2

    def test_z3_mod_one_vector(self):
        amb = AffineLattice.from_solution((0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        q = quotient_with_representatives(amb, [(2, 0, 0)])
        assert q.group == AbelianGroup((2, 0, 0))
        # one torsion generator of order 2 and two free generators
        assert q.group.invariant_factors.count(0) == 2
        shell = q.representatives()
        assert len(shell) == 2
        assert not q.same_class(shell[0], shell[1])

    def test_membership_is_equivalence(self):
        amb = AffineLattice.from_solution((1, 2, 3), [(2, 0, 1), (0, 1, 1), (0, 0, 5)])
        q = quotient_with_representatives(amb, [(2, 0, 1), (0, 2, 2)])
        rng = random.Random(37)
        pts = []
        for _ in range(12):
            v = list(amb.particular)
            for row in amb.directions.basis():
                c = rng.randint(-3, 3)
                v = [a + c * b for a, b in zip(v, row)]
            pts.append(tuple(v))
        for u in pts:
            assert q.same_class(u, u)
            for v in pts:
                assert q.same_class(u, v) == q.same_class(v, u)
                for w in pts:
                    if q.same_class(u, v) and q.same_class(v, w):
                        assert q.same_class(u, w)

    def test_class_coords_consistent(self):
        amb = AffineLattice.from_solution((0, 0), [(1, 0), (0, 1)])
        q = quotient_with_representatives(amb, [(2, 0), (0, 3)])
        assert q.group == AbelianGroup((6,)) or q.group == AbelianGroup((2, 3))
        for v in itertools.product(range(-5, 6), repeat=2):
            rep = q.representative(q.class_coords(v))
            assert q.same_class(v, rep)

    def test_rejects_non_sublattice(self):
        amb = AffineLattice.from_solution((0, 0), [(2, 0)])
        with pytest.raises(SublatticeError):
            LatticeQuotient(amb, [(1, 0)])

    @pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_rejects_non_integer_generators(self, bad):
        amb = AffineLattice.from_solution((0, 0), [(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="expected an integer"):
            LatticeQuotient(amb, [(2, 0), (bad, 0)])
        with pytest.raises(ValueError, match="expected an integer"):
            amb.directions.coords_in_basis((bad, 0))

    def test_rejects_generators_outside_the_directions(self):
        amb = AffineLattice.from_solution((5, 5), [(2, 0), (0, 3)])
        for gens, outside in (([(1, 0)], "(1, 0)"), ([(4, 3), (0, 1)], "(0, 1)"), ([[2, 3], [3, 3]], "(3, 3)")):
            message = f"sublattice generator {outside} is not a direction of the solution lattice"
            with pytest.raises(SublatticeError, match=re.escape(message)):
                LatticeQuotient(amb, gens)
        assert amb.directions.coords_in_basis((1, 0)) is None
        assert amb.directions.coords_in_basis((0, 1)) is None
        assert amb.directions.coords_in_basis((4, 3)) == (2, 1)
        with pytest.raises(ValueError, match="vector length"):
            amb.directions.coords_in_basis((2, 0, 0))
        with pytest.raises(ValueError, match="vector length"):
            LatticeQuotient(amb, [(2, 0, 0)])
