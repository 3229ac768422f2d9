"""Exact integer linear algebra: Smith normal form, Diophantine systems,
and lattice quotients with canonical coset representatives.

Everything is arbitrary-precision (plain Python ints); there is no floating
point anywhere.  Every route ends in one Smith reduction,
``_smith_with_inverses``.  Its pivot, the smallest nonzero entry, keeps
the diagonal small, but its transforms of a dense 50 x 50 matrix reach
thousands of bits.  So the sweep reduces D alone, on only the entries each
step can change, logs its steps and returns S only.  ``SmithSolver`` (so
``solve`` and ``inverse_unimodular``) and ``LatticeQuotient`` replay the
log on the few vectors they read, so no classify path builds a transform.
``smith_normal_form`` sweeps A's row Hermite form instead, whose reduced
entries keep U and V within a small multiple of the length of det A;
``_replay`` builds its V and V^-1.

``Lattice`` is the other reduction: its basis is the row Hermite normal
form of its vectors, built in one sweep over the columns, with Euclid by
nearest remainders on the rows nonzero in each column.  A lattice has
exactly one basis in that form, so the canonical coset representatives
read from it, and every pinned output that prints them, depend neither on
the algorithm nor on the order of the input vectors.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from typing import Iterable, Iterator, Optional, Sequence

from .errors import UnsupportedError


Vector = tuple[int, ...]


class SublatticeError(Exception):
    """A claimed sublattice is not contained in the ambient lattice."""


class TooManyClassesError(ValueError, UnsupportedError):
    """A quotient has more classes than can be listed."""


def json_int(x: object) -> int:
    """An integer read from JSON.  Floats, bools and strings are refused
    rather than truncated or coerced."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_ints(values: object) -> Vector:
    """A list of integers read from JSON, each by ``json_int``'s rule."""
    if type(values) is not list:
        raise ValueError(f"expected a list of integers, got {values!r}")
    return tuple(map(json_int, values))


def _int_row(values: Iterable[object]) -> Vector:
    """``values`` as a tuple, refused by ``json_int``'s rule unless every
    entry is an int.  A check, not a conversion: it is on the hot path."""
    row = tuple(values)
    for x in row:
        if type(x) is not int:
            json_int(x)
    return row


class IntMatrix:
    """An immutable integer matrix; supports empty shapes (0 x n, n x 0)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(map(_int_row, data))
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        elif cols < 0:
            raise ValueError(f"negative column count {cols}")
        self.data = rows
        self.rows = len(rows)
        self.cols = cols

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(_identity_rows(n), cols=n)

    @staticmethod
    def zeros(m: int, n: int) -> "IntMatrix":
        if m < 0:
            raise ValueError(f"negative row count {m}")
        return IntMatrix([[0] * n for _ in range(m)], cols=n)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], height: int | None = None) -> "IntMatrix":
        columns = [tuple(c) for c in columns]
        if columns:
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise ValueError("ragged columns")
        elif height is None:
            height = 0
        elif height < 0:
            raise ValueError(f"negative height {height}")
        return IntMatrix(zip(*columns) if columns else [()] * height, cols=len(columns))

    @staticmethod
    def from_json(data: object) -> "IntMatrix":
        """A matrix read from JSON: a list of rows, each a list of integers."""
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("expected a list of rows")
        return IntMatrix([[json_int(x) for x in row] for row in data])

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        columns = list(zip(*other.data)) if other.rows else [()] * other.cols
        return IntMatrix(
            [[sum(map(operator.mul, row, col)) for col in columns] for row in self.data],
            cols=other.cols,
        )

    def __pow__(self, n: int) -> "IntMatrix":
        """``self ** n`` by repeated squaring; a negative ``n`` raises the
        inverse, so it needs a unimodular matrix."""
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        base = self if n >= 0 else self.inverse_unimodular()
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out @ base
            n >>= 1
            if n:
                base = base @ base
        return IntMatrix.identity(self.rows) if out is None else out

    def apply(self, vec: Sequence[int]) -> Vector:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(operator.mul, row, vec)) for row in self.data)

    # -- queries -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    @property
    def is_unimodular(self) -> bool:
        return self.is_square and self.det() in (1, -1)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a unimodular matrix, from one Smith reduction:
        S = I exactly when A is unimodular, and column j solves A x = e_j."""
        solver = SmithSolver(self)
        if not self.is_square or any(d != 1 for d in solver._diagonal):
            raise ValueError("matrix is not unimodular")
        return IntMatrix.from_columns([*map(solver.particular, _identity_rows(self.rows))])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.shape == other.shape and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.shape, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]!r}, cols={self.cols})"


class SmithDecomposition:
    """A = U @ S @ V with U, V unimodular and S diagonal, d1 | d2 | ... >= 0."""

    def __init__(self, U: IntMatrix, S: IntMatrix, V: IntMatrix):
        self.U = U
        self.S = S
        self.V = V

    @property
    def diagonal(self) -> Vector:
        return _diagonal(self.S)


def _diagonal(S: IntMatrix, length: int = 0) -> Vector:
    """The diagonal of S, padded with zeros to ``length`` entries."""
    k = min(S.rows, S.cols)
    return tuple(S.data[i][i] for i in range(k)) + (0,) * (length - k)


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _replay(log: list, x: list, transposed: bool = False, inverse: bool = False) -> list:
    """Multiply x, a vector or a list of whole rows, in place by the product
    E_t ... E_1 of the logged steps, or by its transpose, inverse or both,
    and return it.  A step (i, k, q) is x[i] += q x[k]; each transpose or
    inverse reverses the order of the steps.  (k, k, -2) negates k and is
    its own inverse, and (i, k, None) swaps i and k."""
    whole_rows = bool(x) and isinstance(x[0], list)
    for i, k, q in reversed(log) if transposed != inverse else log:
        if q is None:
            x[i], x[k] = x[k], x[i]
            continue
        if inverse and i != k:
            q = -q
        if transposed:
            i, k = k, i
        x[i] = [a + q * b for a, b in zip(x[i], x[k])] if whole_rows else x[i] + q * x[k]
    return x


def _smith_with_inverses(A: IntMatrix, log=None) -> tuple[IntMatrix]:
    """Smith reduction A = U S V.  Returns (S,) and builds no transform.

    The pivot of each step is the first smallest nonzero |x| of the block,
    row-major.  No |x| is below 1, so the first row that holds a unit ends
    the search, and a unit pivot needs no divisibility pass: it divides the
    rest of the block.  Rows from k down are zero left of column k, so a
    row step changes columns >= k only, and a column step only the rows
    nonzero at column k.  Each step is appended, in ``_replay``'s form, to
    ``log``, a pair (row steps, column steps) of lists, or to a pair of its
    own.  The row steps multiply to U^-1 and the column steps to V^-T.
    """
    row_log, col_log = log or ([], [])
    m, n = A.rows, A.cols
    D = [list(row) for row in A.data]

    k = 0
    while k < min(m, n):
        low = 0
        for r in range(k, m):
            x = min(filter(None, map(abs, D[r][k:])), default=0)
            if x and (not low or x < low):
                low, i = x, r
                if x == 1:
                    break
        if not low:
            break
        j = k + list(map(abs, D[i][k:])).index(low)
        if i != k:
            D[k], D[i] = D[i], D[k]
            row_log.append((k, i, None))
        if j != k:
            for row in D[k:]:
                row[k], row[j] = row[j], row[k]
            col_log.append((k, j, None))
        if D[k][k] < 0:
            D[k] = [-x for x in D[k]]
            row_log.append((k, k, -2))
        top = D[k]
        pivot, live = top[k], [top]
        for i in range(k + 1, m):
            row = D[i]
            if row[k]:
                q = -(row[k] // pivot)
                for j in range(k, n):
                    row[j] += q * top[j]
                row_log.append((i, k, q))
                if row[k]:
                    live.append(row)
        dirty = len(live) > 1
        for j in range(k + 1, n):
            if top[j]:
                q = -(top[j] // pivot)
                for row in live:
                    row[j] += q * row[k]
                col_log.append((j, k, q))
                dirty = dirty or top[j] != 0
        if dirty:
            continue
        # The pivot must divide the rest of the block for the invariant
        # factors to come out in divisibility order.
        offender = None if pivot == 1 else next(
            (i for i in range(k + 1, m) if any(x % pivot for x in D[i][k + 1:])), None
        )
        if offender is None:
            k += 1
        else:
            D[k] = [a + b for a, b in zip(D[k], D[offender])]
            row_log.append((k, offender, 1))

    return (IntMatrix(D, cols=n),)


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form A = U @ S @ V over the integers, exactly.

    The sweep reduces H, the r x n row Hermite basis of A (r = rank A),
    whose entries are reduced above its mostly unit pivots, so V stays
    within a small multiple of the length of det.  A = X H and
    H = U_H S_H V give A V^-1 = (X U_H) S_H, so U's first r columns are
    A V^-1's, each divided exactly by its invariant factor.  When r < m
    they are completed from the Smith form of their transpose, which has
    full row rank and so needs no completion.
    """
    m, n = A.shape
    H = IntMatrix(Lattice(n, A.data).rows, cols=n)
    col_log: list = []
    S, = _smith_with_inverses(H, ([], col_log))
    # V replays the inverse column steps transposed, in the sweep's order,
    # so its entries grow as if the sweep carried it.
    V = IntMatrix(_replay(col_log, _identity_rows(n), True, True), cols=n)
    Vinv = IntMatrix(_replay(col_log, _identity_rows(n), True), cols=n)
    r = H.rows
    pairs = list(zip(zip(*Vinv.data), _diagonal(S)))
    Y = [[sum(map(operator.mul, row, c)) // s for c, s in pairs] for row in A.data]
    if r < m:
        T = smith_normal_form(IntMatrix(zip(*Y), cols=m))
        Y = zip(*(T.U @ IntMatrix(T.V.data[:r], cols=m)).data + T.V.data[r:])
    S = IntMatrix(S.data + ((0,) * n,) * (m - r), cols=n)
    return SmithDecomposition(IntMatrix(Y, cols=m), S, V)


class SmithSolver:
    """One Smith reduction A = U S V, reused for every right-hand side b of
    A x = b: the solutions are V^-1 (S^-1 U^-1 b) plus the integer kernel
    of A, the columns of V^-1 at the zero diagonal entries.  U^-1 and V^-1
    are never built: each vector replays the reduction's logged steps."""

    def __init__(self, A: IntMatrix):
        self.rows, self.cols = A.rows, A.cols
        self._log = ([], [])
        S, = _smith_with_inverses(A, self._log)
        self._diagonal = _diagonal(S, max(A.rows, A.cols))
        zeros = [e for e, d in zip(_identity_rows(A.cols), self._diagonal) if d == 0]
        self.kernel = [tuple(_replay(self._log[1], e, True)) for e in zeros]

    def particular(self, b: Sequence[int]) -> Optional[Vector]:
        """One integer solution of A x = b, or ``None`` when there is none."""
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        y = _replay(self._log[0], list(b))
        if any(yi % d if d else yi for d, yi in zip(self._diagonal, y)):
            return None
        # The nonzero diagonal entries come first.
        z = [yi // d for d, yi in zip(self._diagonal, y) if d]
        return tuple(_replay(self._log[1], z + [0] * (self.cols - len(z)), True))


def solve(A: IntMatrix, b: Sequence[int]) -> Optional[tuple[Vector, list[Vector]]]:
    """Solve A x = b over the integers.

    Returns ``None`` when no integer solution exists, otherwise a particular
    solution together with a basis of the integer kernel of A.
    """
    solver = SmithSolver(A)
    particular = solver.particular(b)
    return None if particular is None else (particular, solver.kernel)


class AbelianGroup:
    """A finitely generated abelian group in invariant-factor normal form.

    ``invariant_factors`` lists the cyclic orders: each nonzero factor is
    >= 2 and divides the next nonzero factor; 0 denotes an infinite cyclic
    factor and all zeros come last.  The empty tuple is the trivial group.
    """

    def __init__(self, invariant_factors: Vector):
        self.invariant_factors = invariant_factors

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash(self.invariant_factors)

    @staticmethod
    def from_factors(factors: Iterable[int]) -> "AbelianGroup":
        """Normalise any cyclic decomposition: Z_a x Z_b = Z_gcd x Z_lcm, so
        replacing each pair by its gcd and lcm leaves every factor dividing
        the next."""
        factors = [abs(json_int(f)) for f in factors]
        chain = [f for f in factors if f > 1]
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                g = math.gcd(chain[i], chain[j])
                chain[i], chain[j] = g, chain[i] // g * chain[j]
        return AbelianGroup(tuple(f for f in chain if f > 1) + (0,) * factors.count(0))

    @staticmethod
    def free(rank: int) -> "AbelianGroup":
        if rank < 0:
            raise ValueError(f"negative rank {rank}")
        return AbelianGroup((0,) * rank)

    @staticmethod
    def trivial() -> "AbelianGroup":
        return AbelianGroup(())

    @property
    def rank(self) -> int:
        """Number of infinite cyclic factors."""
        return sum(1 for f in self.invariant_factors if f == 0)

    @property
    def torsion(self) -> Vector:
        return tuple(f for f in self.invariant_factors if f)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        return math.prod(self.invariant_factors) if self.is_finite else None

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        return " x ".join("Z" if f == 0 else f"Z_{f}" for f in self.invariant_factors)

    def to_json(self) -> list[int]:
        return list(self.invariant_factors)


def quotient(ambient_rank: int, sublattice_generators: Iterable[Sequence[int]]) -> AbelianGroup:
    """Z^n modulo the span of the given vectors, in invariant-factor form."""
    gens = [tuple(g) for g in sublattice_generators]
    for g in gens:
        if len(g) != ambient_rank:
            raise ValueError("generator length does not match ambient rank")
    if not gens:
        return AbelianGroup.free(ambient_rank)
    S, = _smith_with_inverses(IntMatrix.from_columns(gens, height=ambient_rank))
    return AbelianGroup.from_factors(_diagonal(S, ambient_rank))


class Lattice:
    """An integer lattice in Z^dim kept in row Hermite normal form.

    The basis rows have strictly increasing pivot columns, positive pivots,
    and entries above each pivot reduced into [0, pivot), so ``reduce``
    returns a unique canonical representative of each coset of the lattice.
    The form is unique (Cohen, GTM 138, 2.4.3): any input order gives the
    same rows.  They are built in one sweep over the columns: at column p,
    of the rows nonzero there, the one of least |entry| is made positive
    and each other row takes off its nearest multiple, until one row is
    left: the next basis row.  The earlier basis rows take off floor
    multiples of it, into [0, pivot) at p.  The rows still to come are zero
    left of p, so each step touches only columns >= p.
    """

    def __init__(self, dim: int, vectors: Iterable[Sequence[int]] = ()):
        self.dim = dim
        self.rows: list[list[int]] = []
        self._pivots: list[int] = []
        pending = [self._checked(v) for v in vectors]
        for p in range(dim):
            active = [row for row in pending if row[p]]
            pending = [row for row in pending if not row[p]]
            while len(active) > 1 or active and active[0][p] < 0:
                pivot = min(active, key=lambda row: abs(row[p]))
                if pivot[p] < 0:
                    pivot[p:] = [-x for x in pivot[p:]]
                for row in active:
                    if row is not pivot:
                        _reduce_row(row, pivot, p, pivot[p] // 2)
                pending += [row for row in active if not row[p]]
                active = [row for row in active if row[p]]
            if active:
                pivot = active[0]
                for row in self.rows:
                    _reduce_row(row, pivot, p)
                self.rows.append(pivot)
                self._pivots.append(p)

    def basis(self) -> list[Vector]:
        return [tuple(r) for r in self.rows]

    def _checked(self, vector: Sequence[int]) -> list[int]:
        """``vector`` as a new list, refused unless it has ``dim`` int entries."""
        vec = list(_int_row(vector))
        if len(vec) != self.dim:
            raise ValueError("vector length does not match lattice dimension")
        return vec

    def _eliminate(self, vec: list[int]) -> Optional[Vector]:
        """Take the floor multiple of each basis row at its pivot off the
        checked ``vec``, in place and row by row.  A row is zero left of its
        pivot.  Returns the multiples taken, or ``None`` when a pivot entry
        its row does not divide leaves a nonzero remainder."""
        coords = tuple(
            [_reduce_row(vec, row, p) if vec[p] else 0 for row, p in zip(self.rows, self._pivots)]
        )
        return None if any(vec) else coords

    def reduce(self, vector: Sequence[int]) -> Vector:
        """Canonical representative of ``vector`` modulo the lattice."""
        vec = self._checked(vector)
        self._eliminate(vec)
        return tuple(vec)

    def __contains__(self, vector: Sequence[int]) -> bool:
        return self.coords_in_basis(vector) is not None

    def coords_in_basis(self, vector: Sequence[int]) -> Optional[Vector]:
        """Write ``vector`` as an integer combination of the basis rows, or
        ``None`` when it is not in the lattice."""
        return self._eliminate(self._checked(vector))


def _reduce_row(row: list[int], pivot: Sequence[int], p: int, half: int = 0) -> int:
    """Take q = (row[p] + half) // pivot[p] times ``pivot`` off ``row``, in
    place, and return q.  Both are zero left of p, so only columns >= p move."""
    q = (row[p] + half) // pivot[p]
    if q:
        for j in range(p, len(row)):
            row[j] -= q * pivot[j]
    return q


class AffineLattice:
    """A coset ``particular + L`` of an integer lattice L in Z^dim."""

    def __init__(self, dim: int, particular: Vector, directions: Lattice):
        self.dim = dim
        self.particular = particular
        self.directions = directions

    @staticmethod
    def from_solution(particular: Sequence[int], kernel: Iterable[Sequence[int]]) -> "AffineLattice":
        particular = _int_row(particular)
        return AffineLattice(len(particular), particular, Lattice(len(particular), kernel))

    def __contains__(self, vector: Sequence[int]) -> bool:
        diff = tuple(a - b for a, b in zip(vector, self.particular))
        return diff in self.directions


class LatticeQuotient:
    """The quotient of an affine solution lattice by a homotopy sublattice.

    Provides the quotient group in invariant-factor form, one canonical
    representative per coset, coordinates of any solution vector in the
    quotient, and a membership test deciding coset equality.
    """

    def __init__(self, ambient: AffineLattice, sublattice_generators: Iterable[Sequence[int]]):
        self.ambient = ambient
        subgens = [tuple(g) for g in sublattice_generators]
        # Building the sub-lattice is the one check of each generator.
        self.sub_lattice = Lattice(ambient.dim, subgens)
        coord_cols = []
        for g in subgens:
            coords = ambient.directions._eliminate(list(g))
            if coords is None:
                raise SublatticeError(
                    f"sublattice generator {g} is not a direction of the solution lattice"
                )
            coord_cols.append(coords)

        basis = ambient.directions.basis()
        m = len(basis)
        C = IntMatrix.from_columns(coord_cols, height=m)
        row_log: list = []
        S, = _smith_with_inverses(C, (row_log, []))
        diag = _diagonal(S, m)
        kept = [i for i in range(m) if diag[i] != 1]
        # A Smith diagonal without its 1s is already in invariant-factor form.
        self.group = AbelianGroup.from_factors(diag[i] for i in kept)
        # Row i of U^-1 is U^-T e_i and column i of U is U e_i, both replayed
        # from the row steps; each replay changes its own unit vector.
        units = _identity_rows(m)
        self._uinv_rows = [_replay(row_log, list(units[i]), transposed=True) for i in kept]
        u_columns = [_replay(row_log, units[i], inverse=True) for i in kept]
        # Ambient generator vector for each kept cyclic factor.
        columns = list(zip(*basis))
        self.generator_vectors: list[Vector] = [
            tuple(sum(map(operator.mul, u, c)) for c in columns) for u in u_columns
        ]

    # -- coset machinery ------------------------------------------------------

    def same_class(self, v1: Sequence[int], v2: Sequence[int]) -> bool:
        """Do two solution vectors lie in the same coset of the sublattice?"""
        diff = tuple(a - b for a, b in zip(v1, v2))
        return diff in self.sub_lattice

    def class_coords(self, vector: Sequence[int]) -> Vector:
        """Coordinates of the coset of ``vector`` over the quotient generators."""
        diff = tuple(a - b for a, b in zip(vector, self.ambient.particular))
        coords = self.ambient.directions.coords_in_basis(diff)
        if coords is None:
            raise ValueError("vector does not lie in the solution lattice")
        ys = [sum(map(operator.mul, row, coords)) for row in self._uinv_rows]
        return tuple(y % d if d else y for y, d in zip(ys, self.group.invariant_factors))

    def representative(self, coords: Sequence[int]) -> Vector:
        """Canonical solution vector for the class with the given coordinates."""
        vec = self.ambient.particular
        for c, g in zip(coords, self.generator_vectors):
            vec = [a + c * b for a, b in zip(vec, g)]
        return self.sub_lattice.reduce(vec)

    def _class_coords_ranges(self) -> list[range]:
        """Each class coordinate's values, 0 alone for a free one; refused past sys.maxsize."""
        count = math.prod(self.group.torsion)
        if count > sys.maxsize:
            raise TooManyClassesError(f"{count} classes are too many to list")
        return [range(d or 1) for d in self.group.invariant_factors]

    def enumerate_class_coords(self) -> Iterator[Vector]:
        if not self.group.is_finite:
            raise ValueError("cannot enumerate an infinite quotient")
        return itertools.product(*self._class_coords_ranges())

    def representatives(self) -> list[Vector]:
        """Canonical representatives of the classes whose free coordinates
        are 0: every class of a finite quotient."""
        return [self.representative(c) for c in itertools.product(*self._class_coords_ranges())]

    def free_generator_vectors(self) -> list[Vector]:
        return [g for g, d in zip(self.generator_vectors, self.group.invariant_factors) if d == 0]


def quotient_with_representatives(
    ambient: AffineLattice, sublattice_generators: Iterable[Sequence[int]]
) -> LatticeQuotient:
    """Quotient an affine solution lattice by a homotopy sublattice.

    The returned object carries the group, canonical representatives, and
    the coset-equality membership test.
    """
    return LatticeQuotient(ambient, sublattice_generators)
