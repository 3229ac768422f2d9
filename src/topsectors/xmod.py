"""Crossed modules: computable targets over abelian groups, finite crossed
modules by tables, Hoang data with the extension 3-cocycle, and the strict
2-group dictionary.

A crossed module is a homomorphism d: H -> G with a G-action on H such that
d(^g h) = g d(h) g^-1 and ^d(h) h' = h h' h^-1.  Dropping the second
condition gives a pre-crossed module.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import Sequence

from .complexes import catalog_params, check_keys, json_field, json_list_field
from .errors import InputError, UnsupportedError
from .fingrp import FiniteGroup
from .zlinalg import (
    AbelianGroup,
    AffineLattice,
    IntMatrix,
    json_int,
    json_ints,
    quotient_with_representatives,
)


class XModError(InputError):
    pass


# ---------------------------------------------------------------------------
# Computable targets: d : Z^r -> G with G finitely generated abelian
# ---------------------------------------------------------------------------


class ModuleXMod:
    """A target crossed module d: Z^r -> G with G abelian.

    G is presented by ``free_rank`` free generators followed by torsion
    generators of the given orders; ``action`` holds one integer matrix per
    G-generator acting on Z^r, and ``boundary`` has one column per basis
    vector of Z^r giving its image in G-coordinates.  Two targets are equal
    when all of these are; the display ``name`` does not count.
    """

    def __init__(
        self, free_rank: int, torsion: tuple[int, ...], rank: int,
        action: tuple[IntMatrix, ...], boundary: IntMatrix, name: str | None = None,
    ):
        self.free_rank = free_rank
        self.torsion = torsion
        self.rank = rank
        self.action = action
        self.boundary = boundary
        self.name = name
        _check_nonnegative(rank=self.rank, free_rank=self.free_rank)
        k = self.num_g_generators
        if len(self.action) != k:
            raise XModError("need one action matrix per G generator")
        for m in self.action:
            if m.shape != (self.rank, self.rank):
                raise XModError("action matrices must be rank x rank")
        if self.boundary.shape != (k, self.rank):
            raise XModError("boundary must have one G-coordinate column per H basis vector")
        if any(t < 2 for t in self.torsion):
            raise XModError("torsion orders must be >= 2")

    def _key(self) -> tuple:
        return self.free_rank, self.torsion, self.rank, self.action, self.boundary

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModuleXMod) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def num_g_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    def torsion_relation_columns(self) -> list[tuple[int, ...]]:
        k = self.num_g_generators
        cols = []
        for i, order in enumerate(self.torsion):
            col = [0] * k
            col[self.free_rank + i] = order
            cols.append(tuple(col))
        return cols

    def rho_of_coords(self, coords: Sequence[int]) -> IntMatrix:
        """Action matrix of the G-element with the given coordinates."""
        out = IntMatrix.identity(self.rank)
        for matrix, c in zip(self.action, coords):
            if c:
                out = out @ matrix**c
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "G": {"free_rank": self.free_rank, "torsion": list(self.torsion)},
            "rank": self.rank,
            "action": [[list(row) for row in m.data] for m in self.action],
            "boundary": [list(self.boundary.column(j)) for j in range(self.rank)],
        }

    @staticmethod
    def from_json(obj: dict, name: str | None = None) -> "ModuleXMod":
        where = "malformed target file:"
        check_keys(obj, {"G", "rank", "action", "boundary"}, "target file", XModError)
        g = json_field(obj, "G", dict, where, error=XModError)
        check_keys(g, {"free_rank", "torsion"}, "target file G", XModError)
        free_rank = json_field(g, "free_rank", int, where, 0, XModError)
        torsion = json_list_field(g, "torsion", json_ints, where, [], XModError)
        rank = json_field(obj, "rank", int, where, error=XModError)
        action = json_list_field(
            obj, "action", lambda ms: tuple(map(IntMatrix.from_json, ms)), where, error=XModError
        )
        height = free_rank + len(torsion)
        boundary = json_list_field(
            obj,
            "boundary",
            lambda cols: IntMatrix.from_columns(list(map(json_ints, cols)), height=height),
            where,
            error=XModError,
        )
        return ModuleXMod(free_rank, torsion, rank, action, boundary, name=name)


def _check_nonnegative(**fields: int) -> None:
    for field_name, value in fields.items():
        if value < 0:
            raise XModError(f"{field_name} must be >= 0, got {value}")


def target_catalog(name: str, **params) -> ModuleXMod:
    """Built-in targets: rp2, sphere2, trivial(r, k = 0).  Parameters are
    ints, passed by keyword."""
    if name == "rp2":
        catalog_params(name, params, (), XModError)
        return ModuleXMod(
            free_rank=1,
            torsion=(),
            rank=2,
            action=(IntMatrix([[0, 1], [1, 0]]),),
            boundary=IntMatrix([[2, 2]]),
            name="rp2",
        )
    if name == "sphere2":
        catalog_params(name, params, (), XModError)
        return ModuleXMod(
            free_rank=0,
            torsion=(),
            rank=1,
            action=(),
            boundary=IntMatrix.zeros(0, 1),
            name="sphere2",
        )
    if name == "trivial":
        r, k = catalog_params(name, {"k": 0, **params}, ("r", "k"), XModError)
        _check_nonnegative(rank=r, free_rank=k)
        return ModuleXMod(
            free_rank=k,
            torsion=(),
            rank=r,
            action=tuple(IntMatrix.identity(r) for _ in range(k)),
            boundary=IntMatrix.zeros(k, r),
            name=f"trivial({r},{k})",
        )
    raise XModError(f"unknown target {name!r}")


# ---------------------------------------------------------------------------
# Finite crossed modules by multiplication table
# ---------------------------------------------------------------------------


class FiniteCrossedModule:
    def __init__(
        self, H: FiniteGroup, G: FiniteGroup,
        boundary: Sequence[int],  # H index -> G index
        action: Sequence[Sequence[int]],  # [g][h] -> H index
    ):
        self.H = H
        self.G = G
        self.boundary = tuple(boundary)
        self.action = tuple(tuple(row) for row in action)
        if len(self.boundary) != len(self.H):
            raise XModError("boundary must assign an image to every H element")
        if len(self.action) != len(self.G) or any(len(r) != len(self.H) for r in self.action):
            raise XModError("action must be a |G| x |H| table")
        _check_indices([self.boundary], len(self.G), "boundary")
        _check_indices(self.action, len(self.H), "action")

    def act(self, g: int, h: int) -> int:
        return self.action[g][h]

    def to_json(self) -> dict:
        return {
            "H_table": [list(r) for r in self.H.table],
            "G_table": [list(r) for r in self.G.table],
            "boundary": list(self.boundary),
            "action": [list(r) for r in self.action],
        }

    @staticmethod
    def from_json(obj: dict) -> "FiniteCrossedModule":
        allowed = {"H_table", "G_table", "boundary", "action"}
        check_keys(obj, allowed, "crossed module file", XModError)
        if missing := sorted(allowed - set(obj)):
            raise XModError(f"missing key {missing[0]!r}")
        H = FiniteGroup(_index_rows(obj["H_table"], "H_table"))
        G = FiniteGroup(_index_rows(obj["G_table"], "G_table"))
        (boundary,) = _index_rows([obj["boundary"]], "boundary", len(G))
        return FiniteCrossedModule(H, G, boundary, _index_rows(obj["action"], "action", len(H)))


def _index_rows(rows: object, field_name: str, n: int | None = None) -> list[tuple[int, ...]]:
    """JSON lists of element indices, ints by ``json_int``'s rule in
    0..n-1; n is the number of rows for a multiplication table."""
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise XModError(f"{field_name} must hold lists of element indices")
    n = len(rows) if n is None else n
    try:
        out = [tuple(json_int(x) for x in row) for row in rows]
    except ValueError as err:
        raise XModError(f"{field_name}: {err}") from None
    _check_indices(out, n, field_name)
    return out


def _check_indices(rows: Sequence[Sequence[int]], n: int, field_name: str) -> None:
    """Refuse any entry of ``rows`` that is not an int in 0..n-1."""
    if any(type(x) is not int or not 0 <= x < n for row in rows for x in row):
        raise XModError(f"{field_name} entries must lie in 0..{n - 1}")


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------


def validate(x: ModuleXMod | FiniteCrossedModule) -> list[str]:
    """Check the crossed-module axioms; returns a list of violations.  A
    target that breaks none of them but whose Peiffer condition needs a power
    too large to take (``_acts_trivially``) raises UnsupportedError."""
    if isinstance(x, ModuleXMod):
        return _validate_module(x)
    return _validate_finite(x)


def _validate_module(x: ModuleXMod) -> list[str]:
    if singular := [i for i, m in enumerate(x.action) if not m.is_unimodular]:
        return [f"action matrix {i} is not invertible over Z" for i in singular]
    orders = (0,) * x.free_rank + tuple(x.torsion)
    out = action_violations(x.action, orders)
    # Condition 1 (G abelian): d(^g h) = d(h), i.e. d . rho(g) = d, where the
    # comparison in torsion rows is modulo the generator order.
    for i, m in enumerate(x.action):
        moved = x.boundary @ m
        if any(
            (a - b) % n if n else a != b
            for n, moved_row, row in zip(orders, moved.data, x.boundary.data)
            for a, b in zip(moved_row, row)
        ):
            out.append(f"equivariance fails: boundary not preserved by action of generator {i}")
    # Condition 2: rho(d e_j) = identity for every basis vector of H.
    # A coordinate above 4 brings in the order of every action matrix.
    identity = IntMatrix.identity(x.rank)
    big = max(map(abs, itertools.chain(*x.boundary.data)), default=0) > 4
    orders = [_order(m) for m in x.action] if big else None
    undecided = []
    for j in range(x.rank):
        trivial = _acts_trivially(x, x.boundary.column(j), orders, identity)
        if trivial is None:
            undecided.append(j)
        elif not trivial:
            out.append(f"Peiffer condition fails: d(e_{j}) does not act trivially")
    if undecided and not out:
        raise UnsupportedError(
            f"cannot decide whether d(e_{undecided[0]}) acts trivially: a power of the"
            f" action has an entry of more than {_input_digits()} digits"
        )
    return out


def _acts_trivially(x: ModuleXMod, coords: Sequence[int], orders: Sequence[int] | None,
                    identity: IntMatrix) -> bool | None:
    """``x.rho_of_coords(coords) == identity``, given the order of each
    action matrix (``_order``) unless every power is small.  A power of a
    matrix of finite order is reduced modulo it.  When exactly one nonzero
    coordinate falls on a matrix of infinite order and the matrices of
    finite order commute, the product is not I with no power taken: else
    that matrix's power would lie in the finite group of the others.  Two or
    more such coordinates are powered as they stand, bit by bit from the top
    of the exponent, and the answer is None, undecided, once a partial power
    has an entry longer than an input integer may be (``_input_digits``)."""
    if orders is None:
        return x.rho_of_coords(coords) == identity
    used = [(m, c % o if o else c, o) for m, c, o in zip(x.action, coords, orders) if c]
    finite = [m for m, _, o in used if o]
    if len(finite) == len(used) - 1 and all(
        a @ b == b @ a for a, b in itertools.combinations(finite, 2)
    ):
        return False
    limit, product = 10 ** _input_digits(), identity
    for m, c, _ in used:
        base, power = m if c >= 0 else m.inverse_unimodular(), identity
        for bit in bin(abs(c))[2:]:
            power = power @ power @ base if bit == "1" else power @ power
            if any(abs(v) >= limit for row in power.data for v in row):
                return None
        product = product @ power
    return product == identity


def _input_digits() -> int:
    """The most decimal digits an integer read from input may have: Python's
    limit on them, or its default, 4300, where the limit is lifted."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def action_violations(matrices: Sequence[IntMatrix], orders: Sequence[int]) -> list[str]:
    """Why square matrices, one per generator of an abelian group of the
    given orders (0 = infinite), define no action: a pair that does not
    commute (commuting also makes rho of a coordinate vector independent of
    the factor order), or a generator of order n whose n-th power is not I."""
    out = [
        f"action matrices {i} and {j} do not commute"
        for (i, a), (j, b) in itertools.combinations(enumerate(matrices), 2)
        if a @ b != b @ a
    ]
    identity = None  # built once, and only for a generator of finite order
    for i, (m, n) in enumerate(zip(matrices, orders)):
        if n:
            if identity is None:
                identity = IntMatrix.identity(m.rows)
            # A power of at most 4 is at most two products; a higher one is
            # decided by m's order, so that no power grows with n.
            if n <= 4:
                respected = m**n == identity
            else:
                order = _order(m)
                respected = order > 0 and n % order == 0
            if not respected:
                out.append(f"action of generator {i} does not respect its order {n}")
    return out


def _order(m: IntMatrix) -> int:
    """The order of a square integer matrix m, or 0 if it is infinite.

    A matrix of finite order is diagonalisable with roots of unity as
    eigenvalues, so its characteristic polynomial is a product of
    cyclotomic polynomials Phi_d with phi(d) <= rank, and its order is e,
    the lcm of those d.  A product of them whose m**e is not I (a Jordan
    block) and any other polynomial give an infinite order.  So the one
    power taken is m**e, with entries that do not grow."""
    poly, e = _charpoly(m), 1
    for d in range(1, max(6, m.rows * m.rows) + 1):  # phi(d) >= sqrt(d) for d > 6
        if sum(math.gcd(k, d) == 1 for k in range(d)) <= m.rows:  # phi(d)
            while (rest := _divide(poly, _cyclotomic(d))) is not None:
                poly, e = rest, math.lcm(e, d)
    return e if len(poly) == 1 and m**e == IntMatrix.identity(m.rows) else 0


def _charpoly(m: IntMatrix) -> list[int]:
    """det(xI - m), highest degree first, by Faddeev-LeVerrier: with
    M_1 = I and M_k = m M_(k-1) + c_(k-1) I, c_k = -tr(m M_k) / k, exactly."""
    coeffs, product = [1], IntMatrix.zeros(m.rows, m.rows)
    for k in range(1, m.rows + 1):
        product = m @ IntMatrix(
            [[x + coeffs[-1] * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(product.data)], cols=m.rows,
        )
        coeffs.append(-sum(row[i] for i, row in enumerate(product.data)) // k)
    return coeffs


def _divide(num: Sequence[int], den: Sequence[int]) -> list[int] | None:
    """num / den for polynomials highest degree first and a monic den, or
    None when den does not divide num."""
    out, k = list(num), len(den) - 1
    if len(out) <= k:
        return None
    for i in range(len(out) - k):
        if q := out[i]:
            for j in range(1, k + 1):
                out[i + j] -= q * den[j]
    return None if any(out[len(out) - k:]) else out[: len(out) - k]


@functools.cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d, highest degree first: x^d - 1 over Phi_k of each proper divisor k."""
    poly = [1] + [0] * (d - 1) + [-1]
    for k in range(1, d):
        if d % k == 0:
            poly = _divide(poly, _cyclotomic(k))
    return tuple(poly)


def _is_homomorphism(f: Sequence, A: FiniteGroup, mul) -> bool:
    """f(ab) = f(a) f(b) for all a, b in A, with f(a) the a-th entry of f
    and the product on the right taken by ``mul``."""
    return all(f[A.mul(a, b)] == mul(f[a], f[b]) for a in A.elements() for b in A.elements())


def _validate_finite(x: FiniteCrossedModule) -> list[str]:
    out = []
    H, G = x.H, x.G
    if not _is_homomorphism(x.boundary, H, G.mul):
        out.append("boundary is not a homomorphism")
    # each action[g] is an automorphism and g -> action[g] a homomorphism
    for g, row in enumerate(x.action):
        if sorted(row) != list(H.elements()):
            out.append(f"action of {g} is not a bijection")
        elif not _is_homomorphism(row, H, H.mul):
            out.append(f"action of {g} is not an automorphism")
    if not _is_homomorphism(x.action, G, lambda r, s: tuple(r[h] for h in s)):
        out.append("action is not a group action")
    if out:
        return out
    return [
        f"equivariance fails at g={g}, h={h}: d(^g h) != g d(h) g^-1"
        for g, h in itertools.product(G.elements(), H.elements())
        if x.boundary[x.act(g, h)] != G.conj(g, x.boundary[h])
    ] + [
        f"Peiffer condition fails at h={h1}, h'={h2}: ^d(h) h' != h h' h^-1"
        for h1, h2 in itertools.product(H.elements(), repeat=2)
        if x.act(x.boundary[h1], h2) != H.conj(h1, h2)
    ]


# ---------------------------------------------------------------------------
# Hoang data
# ---------------------------------------------------------------------------


class HoangData:
    """Classification data (pi1, pi2, alpha, beta) of a finite crossed module.

    ``pi1`` is coker(d) and ``pi2`` = ker(d) as finite groups.
    ``pi2_invariants`` and the basis of ``alpha`` come from one lattice
    quotient, pi2 read as Z^k modulo the relations among k generators:
    ``alpha`` gives the induced action as a matrix per pi1 element over the
    quotient's generators, row i taken modulo the i-th invariant factor.
    ``beta`` is the twisted 3-cocycle table pi1^3 -> pi2 measuring the
    double extension.
    """

    def __init__(
        self, pi1: FiniteGroup, pi2: FiniteGroup, pi2_invariants: AbelianGroup,
        alpha: tuple[IntMatrix, ...], beta: dict[tuple[int, int, int], int],
        act_on_pi2: tuple[tuple[int, ...], ...],
    ):
        self.pi1 = pi1
        self.pi2 = pi2
        self.pi2_invariants = pi2_invariants
        self.alpha = alpha
        self.beta = beta
        self._act_on_pi2 = act_on_pi2

    def act(self, a: int, k: int) -> int:
        """Action of pi1 element a on pi2 element k (indices in pi2)."""
        return self._act_on_pi2[a][k]

    def beta_at(self, a: int, b: int, c: int) -> int:
        return self.beta[(a, b, c)]

    def is_cocycle(self) -> bool:
        """Exhaustive twisted cocycle check: (delta beta) = 0 on pi1^4."""
        pi1, pi2 = self.pi1, self.pi2
        for a, b, c, d in itertools.product(pi1.elements(), repeat=4):
            lhs = self.act(a, self.beta_at(b, c, d))
            lhs = pi2.mul(lhs, self.beta_at(a, pi1.mul(b, c), d))
            lhs = pi2.mul(lhs, self.beta_at(a, b, c))
            rhs = pi2.mul(self.beta_at(pi1.mul(a, b), c, d), self.beta_at(a, b, pi1.mul(c, d)))
            if lhs != rhs:
                return False
        return True

    def coboundary_witness(self) -> dict[tuple[int, int], int] | None:
        """Brute-force search for a normalized 2-cochain lam with
        beta = delta lam; None when the class is nontrivial.

        Exponential in |pi1|^2, so meant for groups of order <= 4.
        """
        pi1, pi2 = self.pi1, self.pi2
        nontrivial = [a for a in pi1.elements() if a != 0]
        cells = [(a, b) for a in nontrivial for b in nontrivial]
        for assignment in itertools.product(pi2.elements(), repeat=len(cells)):
            lam = {(a, b): 0 for a in pi1.elements() for b in pi1.elements()}
            lam.update(dict(zip(cells, assignment)))
            if _coboundary(pi1, pi2, self.act, lam) == self.beta:
                return lam
        return None


def _coboundary(
    pi1: FiniteGroup, coeffs: FiniteGroup, act, cochain: dict[tuple[int, int], int]
) -> dict[tuple[int, int, int], int]:
    """The twisted coboundary of a 2-cochain w: pi1^2 -> coeffs, with pi1
    acting on coeffs by ``act(a, k)``:
    (delta w)(a, b, c) = ^a w(b, c) . w(a, bc) . w(ab, c)^-1 . w(a, b)^-1."""
    out = {}
    for a, b, c in itertools.product(pi1.elements(), repeat=3):
        val = act(a, cochain[(b, c)])
        val = coeffs.mul(val, cochain[(a, pi1.mul(b, c))])
        val = coeffs.mul(val, coeffs.inv(cochain[(pi1.mul(a, b), c)]))
        out[(a, b, c)] = coeffs.mul(val, coeffs.inv(cochain[(a, b)]))
    return out


def hoang_data(x: FiniteCrossedModule) -> HoangData:
    """Extract (pi1, pi2, alpha, beta) from a validated finite crossed module.

    The construction picks the minimal-index lift at every choice point, so
    the output is deterministic; different lifts would change beta only by a
    coboundary.
    """
    violations = validate(x)
    if violations:
        raise XModError("crossed module fails validation: " + "; ".join(violations))
    H, G = x.H, x.G

    image = frozenset({x.boundary[h] for h in H.elements()})
    pi1, proj = G.quotient(image)

    kernel = frozenset(h for h in H.elements() if x.boundary[h] == 0)
    pi2, members = x.H.subgroup_table(kernel)
    if not pi2.is_abelian:
        raise XModError("kernel of the boundary is not abelian")
    member_index = {m: i for i, m in enumerate(members)}

    # Minimal-index section s: pi1 -> G.
    section = [min(g for g in G.elements() if proj[g] == a) for a in pi1.elements()]

    # Induced action of pi1 on pi2 through the section.
    act_on_pi2 = tuple(
        tuple(member_index[x.act(section[a], m)] for m in members) for a in pi1.elements()
    )

    # Failure of the section to be a homomorphism, lifted into H.
    def lift_to_h(g: int) -> int:
        return min(h for h in H.elements() if x.boundary[h] == g)

    omega_tilde = {}
    for a in pi1.elements():
        for b in pi1.elements():
            w = G.mul(section[a], G.mul(section[b], G.inv(section[pi1.mul(a, b)])))
            omega_tilde[(a, b)] = lift_to_h(w)

    # beta = delta omega~, computed in H; it lands in the kernel.
    delta = _coboundary(pi1, H, lambda a, h: x.act(section[a], h), omega_tilde)
    if not kernel.issuperset(delta.values()):
        raise XModError("extension cocycle escaped the kernel; invalid input")
    beta = {abc: member_index[h] for abc, h in delta.items()}

    pi2_invariants, alpha = _pi2_structure(pi2, act_on_pi2)
    data = HoangData(
        pi1=pi1,
        pi2=pi2,
        pi2_invariants=pi2_invariants,
        alpha=alpha,
        beta=beta,
        act_on_pi2=act_on_pi2,
    )
    if not data.is_cocycle():
        raise XModError("extracted beta fails the cocycle condition")
    return data


def _pi2_structure(
    pi2: FiniteGroup, act_on_pi2: Sequence[Sequence[int]]
) -> tuple[AbelianGroup, tuple[IntMatrix, ...]]:
    """pi2 and its automorphisms ``act_on_pi2`` read through one lattice
    quotient of Z^k.

    Generators s_1..s_k keep each element, in index order, that the kept
    ones do not yet generate; walking the cosets of each new s_j gives
    every h exponents c(h) with h = s_1^c_1 ... s_k^c_k and c(1) = 0.  Every
    v in Z^k is congruent to c(s^v) modulo the relations
    c(h) + e_j - c(h s_j), so they span the kernel of v -> s^v and the
    quotient is pi2.  An automorphism sends v to the sum of v_j c(perm(s_j)).
    """
    gens: list[int] = []
    coords: dict[int, tuple[int, ...]] = {0: ()}
    for g in pi2.elements():
        if g in coords:
            continue
        reached = [(r, c + (0,) * (len(gens) - len(c))) for r, c in coords.items()]
        # Coset i of the reached subgroup is r g^i, until g^i falls inside.
        p, i = g, 1
        while p not in coords:
            for r, c in reached:
                coords[pi2.mul(r, p)] = c + (i,)
            p, i = pi2.mul(p, g), i + 1
        gens.append(g)
    k = len(gens)
    vec = {h: c + (0,) * (k - len(c)) for h, c in coords.items()}
    relations = [
        tuple(a - b + (i == j) for i, (a, b) in enumerate(zip(vec[h], vec[pi2.mul(h, s)])))
        for h in pi2.elements()
        for j, s in enumerate(gens)
    ]
    ambient = AffineLattice.from_solution((0,) * k, IntMatrix.identity(k).data)
    quot = quotient_with_representatives(ambient, relations)
    alpha = []
    for perm in act_on_pi2:
        moved = IntMatrix.from_columns([vec[perm[s]] for s in gens], height=k)
        cols = [quot.class_coords(moved.apply(v)) for v in quot.generator_vectors]
        alpha.append(IntMatrix.from_columns(cols, height=len(quot.group.invariant_factors)))
    return quot.group, tuple(alpha)


# ---------------------------------------------------------------------------
# Strict 2-groups
# ---------------------------------------------------------------------------


class Strict2Group:
    """A strict 2-group presented by tables.

    ``morphisms`` is G; ``two_morphisms`` is the semidirect product H |x G
    with elements (h, g), source g and target g d(h).
    """

    def __init__(
        self, morphisms: FiniteGroup, two_morphisms: FiniteGroup,
        pairs: tuple[tuple[int, int], ...],  # 2-morphism index -> (h, g)
        source: tuple[int, ...], target: tuple[int, ...],
        identity_morphism: tuple[int, ...],  # g -> index of (1, g)
    ):
        self.morphisms = morphisms
        self.two_morphisms = two_morphisms
        self.pairs = pairs
        self.source = source
        self.target = target
        self.identity_morphism = identity_morphism


def to_strict_2group(x: FiniteCrossedModule) -> Strict2Group:
    """The strict 2-group of a crossed module (2-morphisms H |x G)."""
    violations = validate(x)
    if violations:
        raise XModError("crossed module fails validation: " + "; ".join(violations))
    H, G = x.H, x.G
    pairs = [(h, g) for h in H.elements() for g in G.elements()]
    index = {p: i for i, p in enumerate(pairs)}

    # (h1, g1) (h2, g2) = (^(g2^-1) h1 . h2, g1 g2) makes both source and
    # target homomorphisms for s(h, g) = g, t(h, g) = g d(h).
    def mul(p1, p2):
        (h1, g1), (h2, g2) = p1, p2
        return (H.mul(x.act(G.inv(g2), h1), h2), G.mul(g1, g2))

    table = [[index[mul(p1, p2)] for p2 in pairs] for p1 in pairs]
    # The pair order puts the identity 2-morphism (1, 1) first, at index 0.
    assert index[(0, 0)] == 0
    two = FiniteGroup(table)
    source = tuple(g for _, g in pairs)
    target = tuple(G.mul(g, x.boundary[h]) for h, g in pairs)
    identity_morphism = tuple(index[(0, g)] for g in G.elements())
    return Strict2Group(
        morphisms=G,
        two_morphisms=two,
        pairs=tuple(pairs),
        source=source,
        target=target,
        identity_morphism=identity_morphism,
    )


def from_strict_2group(two_group: Strict2Group) -> FiniteCrossedModule:
    """Extract the crossed module t: ker(s) -> G_1 with conjugation action."""
    G2, G = two_group.two_morphisms, two_group.morphisms
    kernel = [i for i in G2.elements() if two_group.source[i] == 0]
    sub, members = G2.subgroup_table(frozenset(kernel))
    member_index = {m: i for i, m in enumerate(members)}
    boundary = tuple(two_group.target[m] for m in members)
    action = []
    for g in G.elements():
        ig = two_group.identity_morphism[g]
        row = [
            member_index[G2.mul(G2.mul(ig, m), G2.inv(ig))]
            for m in members
        ]
        action.append(tuple(row))
    return FiniteCrossedModule(H=sub, G=G, boundary=boundary, action=tuple(action))

