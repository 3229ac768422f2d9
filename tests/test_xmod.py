import itertools
import math
import random

import pytest

from topsectors.complexes import catalog, derivation_image, reduce_hword
from topsectors.fingrp import FiniteGroup, GroupTableError, cyclic, symmetric
from topsectors.words import Word, collect
from topsectors.xmod import (
    FiniteCrossedModule,
    ModuleXMod,
    XModError,
    action_violations,
    from_strict_2group,
    hoang_data,
    target_catalog,
    to_strict_2group,
    validate,
)
from topsectors.zlinalg import AbelianGroup, IntMatrix

from tables import crossed_modules_equal, direct_product, is_trivial_cocycle


def trivial_action(G, H):
    return tuple(tuple(range(len(H))) for _ in range(len(G)))


def zn_to_zn_identity(n):
    Z = cyclic(n)
    return FiniteCrossedModule(
        H=Z, G=Z, boundary=tuple(range(n)), action=conj_action(Z, Z, tuple(range(n)))
    )


def conj_action(G, H, boundary_unused=None):
    # G acting on itself by conjugation, restricted along identity H=G
    return tuple(tuple(G.conj(g, h) for h in range(len(H))) for g in range(len(G)))


def mult2_z4(action="trivial"):
    Z4 = cyclic(4)
    if action == "trivial":
        act = trivial_action(Z4, Z4)
    else:  # generator of G inverts H
        act = tuple(tuple(((-1) ** g * h) % 4 for h in range(4)) for g in range(4))
    return FiniteCrossedModule(
        H=Z4, G=Z4, boundary=tuple((2 * h) % 4 for h in range(4)), action=act
    )


def gl22_on_klein():
    # S3 = GL(2, 2) permuting the three nonzero elements of Z2 x Z2
    klein = direct_product(cyclic(2), cyclic(2))
    act = [(0,) + tuple(p[i] + 1 for i in range(3)) for p in sorted(itertools.permutations(range(3)))]
    return FiniteCrossedModule(H=klein, G=symmetric(3), boundary=(0,) * 4, action=act)


def shear_z2_z4():
    # Z2 acting on Z2 x Z4 by (a, b) -> (a, b + 2a)
    H = direct_product(cyclic(2), cyclic(4))
    shear = tuple(4 * (h // 4) + (h + 2 * (h // 4)) % 4 for h in range(8))
    return FiniteCrossedModule(H=H, G=cyclic(2), boundary=(0,) * 8, action=(tuple(range(8)), shear))


def _with_boundary(H, G, boundary):
    return FiniteCrossedModule(H=H, G=G, boundary=boundary, action=trivial_action(G, H))


# The valid finite crossed modules of this file's tests, and two whose
# action on a two-factor pi2 is nontrivial (nonabelian for gl22_klein).
CROSSED_MODULES = {
    "identity_z2": lambda: zn_to_zn_identity(2),
    "identity_z3": lambda: zn_to_zn_identity(3),
    "identity_z4": lambda: zn_to_zn_identity(4),
    "identity_z8": lambda: zn_to_zn_identity(8),
    "mult2_trivial": lambda: mult2_z4("trivial"),
    "mult2_invert": lambda: mult2_z4("invert"),
    "zero_z2_z2": lambda: _with_boundary(cyclic(2), cyclic(2), (0, 0)),
    "z4_mod2_z2": lambda: _with_boundary(cyclic(4), cyclic(2), (0, 1, 0, 1)),
    "klein_z2": lambda: _with_boundary(direct_product(cyclic(2), cyclic(2)), cyclic(2), (0,) * 4),
    "z4_klein": lambda: _with_boundary(cyclic(4), direct_product(cyclic(2), cyclic(2)), (0,) * 4),
    "z2_z4": lambda: _with_boundary(cyclic(2), cyclic(4), (0, 2)),
    "inversion_z3_z2": lambda: FiniteCrossedModule(
        H=cyclic(3), G=cyclic(2), boundary=(0, 0, 0), action=(tuple(range(3)), (0, 2, 1))
    ),
    "gl22_klein": gl22_on_klein,
    "shear_z2_z4": shear_z2_z4,
}


class TestFiniteGroup:
    def test_non_associative_loop_refused(self):
        # a Latin square with identity 0 and inverses, but (1 2) 2 != 1 (2 2)
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        assert loop[loop[1][2]][2] != loop[1][loop[2][2]]
        with pytest.raises(GroupTableError, match="not associative"):
            FiniteGroup(loop)

    def test_groups_accepted(self):
        for G in (cyclic(1), cyclic(2), symmetric(3), direct_product(cyclic(2), cyclic(4))):
            assert FiniteGroup(G.table).table == G.table

    def test_quotient_needs_the_identity(self):
        with pytest.raises(GroupTableError, match="identity"):
            cyclic(4).quotient(frozenset({2}))
        pi1, proj = cyclic(4).quotient(frozenset({0, 2}))
        assert len(pi1) == 2 and proj == [0, 1, 0, 1]


class TestTargetCatalog:
    def test_rp2(self):
        X = target_catalog("rp2")
        assert X.free_rank == 1 and X.torsion == () and X.rank == 2
        assert X.action[0] == IntMatrix([[0, 1], [1, 0]])
        assert X.boundary == IntMatrix([[2, 2]])
        assert validate(X) == []

    def test_sphere2(self):
        X = target_catalog("sphere2")
        assert X.num_g_generators == 0 and X.rank == 1
        assert validate(X) == []

    def test_trivial(self):
        X = target_catalog("trivial", r=2, k=0)
        assert X.rank == 2 and X.num_g_generators == 0
        assert validate(X) == []

    @pytest.mark.parametrize(
        "name, params, named",
        [
            ("trivial", {"r": 2.7}, "'r'"),
            ("trivial", {"r": True}, "'r'"),
            ("trivial", {"r": "3"}, "'r'"),
            ("trivial", {"r": 2, "k": 1.0}, "'k'"),
            ("trivial", {}, "'r'"),
            ("trivial", {"r": 2, "g": 1}, "'g'"),
            ("rp2", {"r": 1}, "'r'"),
            ("sphere2", {"k": 0}, "'k'"),
        ],
    )
    def test_parameters_are_ints_and_exactly_the_expected_ones(self, name, params, named):
        with pytest.raises(XModError, match=r"\(expected parameters: ") as err:
            target_catalog(name, **params)
        assert named in str(err.value)

    def test_json_round_trip(self):
        X = target_catalog("rp2")
        again = ModuleXMod.from_json(X.to_json())
        assert again.boundary == X.boundary and again.action == X.action


class TestValidation:
    @pytest.mark.parametrize(
        "field, boundary, action",
        [
            ("boundary", (0, 5, 0), ((0, 1, 2),) * 3),
            ("boundary", (0, -1, 0), ((0, 1, 2),) * 3),
            ("action", (0, 0, 0), ((0, 1, 2), (0, 7, 2), (0, 1, 2))),
            ("action", (0, 0, 0), ((0, 1, 2), (0, 1.0, 2), (0, 1, 2))),
        ],
    )
    def test_entries_that_are_not_element_indices_rejected(self, field, boundary, action):
        with pytest.raises(XModError, match=rf"^{field} entries must lie in 0\.\.2$"):
            FiniteCrossedModule(cyclic(3), cyclic(3), boundary, action)

    def test_rp2_with_odd_boundary_rejected(self):
        # d = (1, 1) makes d(e_j) act by the swap, violating the Peiffer rule
        X = ModuleXMod(
            free_rank=1,
            torsion=(),
            rank=2,
            action=(IntMatrix([[0, 1], [1, 0]]),),
            boundary=IntMatrix([[1, 1]]),
        )
        violations = validate(X)
        assert any("Peiffer" in v for v in violations)

    def test_boundary_not_action_invariant(self):
        X = ModuleXMod(
            free_rank=1,
            torsion=(),
            rank=2,
            action=(IntMatrix([[0, 1], [1, 0]]),),
            boundary=IntMatrix([[2, -2]]),
        )
        violations = validate(X)
        assert any("equivariance" in v for v in violations)

    def test_torsion_order_violation(self):
        X = ModuleXMod(
            free_rank=0,
            torsion=(3,),
            rank=1,
            action=(IntMatrix([[-1]]),),
            boundary=IntMatrix.zeros(1, 1),
        )
        violations = validate(X)
        assert any("order" in v for v in violations)

    def test_non_invertible_action(self):
        X = ModuleXMod(
            free_rank=1,
            torsion=(),
            rank=1,
            action=(IntMatrix([[2]]),),
            boundary=IntMatrix.zeros(1, 1),
        )
        violations = validate(X)
        assert any("invertible" in v for v in violations)

    def test_nonabelian_kernel_with_trivial_action(self):
        S3 = symmetric(3)
        x = FiniteCrossedModule(
            H=S3,
            G=cyclic(1),
            boundary=(0,) * 6,
            action=trivial_action(cyclic(1), S3),
        )
        violations = validate(x)
        assert any("Peiffer" in v for v in violations)

    def test_identity_with_inversion_action_rejected(self):
        Z4 = cyclic(4)
        act = tuple(tuple(((-1) ** g * h) % 4 for h in range(4)) for g in range(4))
        x = FiniteCrossedModule(H=Z4, G=Z4, boundary=tuple(range(4)), action=act)
        violations = validate(x)
        assert violations  # equivariance fails

    def test_non_commuting_action_rejected(self):
        # G = Z_2 x Z_2 is abelian, so a swap and a reflection cannot both act
        X = ModuleXMod(
            free_rank=0,
            torsion=(2, 2),
            rank=2,
            action=(IntMatrix([[0, 1], [1, 0]]), IntMatrix([[1, 0], [0, -1]])),
            boundary=IntMatrix.zeros(2, 2),
        )
        assert validate(X) == ["action matrices 0 and 1 do not commute"]

    # One table per law of a finite crossed module's boundary and action,
    # each with the violations it gets, every law reported once.  A row that
    # is no bijection cannot be part of a group action, so that law fails too.
    @pytest.mark.parametrize(
        "boundary, H, action, expected",
        [
            ((0, 1, 1), cyclic(3), ((0, 1, 2),) * 3, ["boundary is not a homomorphism"]),
            (
                (0, 0, 0),
                cyclic(3),
                ((0, 1, 2), (0, 1, 1), (0, 1, 2)),
                ["action of 1 is not a bijection", "action is not a group action"],
            ),
            (
                (0, 0, 0, 0),
                cyclic(4),
                ((0, 1, 2, 3), (0, 2, 1, 3)),
                ["action of 1 is not an automorphism"],
            ),
            (
                (0, 0, 0),
                cyclic(3),
                ((0, 1, 2), (0, 2, 1), (0, 2, 1)),
                ["action is not a group action"],
            ),
        ],
        ids=["boundary", "bijection", "automorphism", "group_action"],
    )
    def test_each_law_reported_once(self, boundary, H, action, expected):
        G = cyclic(len(action))
        x = FiniteCrossedModule(H=H, G=G, boundary=boundary, action=action)
        assert validate(x) == expected

    def test_catalog_targets_accepted(self):
        for name in ("rp2", "sphere2"):
            assert validate(target_catalog(name)) == []
        assert validate(zn_to_zn_identity(4)) == []
        assert validate(mult2_z4("trivial")) == []
        assert validate(mult2_z4("invert")) == []


# Blocks of finite order (1, 2, 4, 3, 6, 2, 3) and of infinite order, from
# which random action matrices are built.
FINITE_BLOCKS = [[[1]], [[-1]], [[0, -1], [1, 0]], [[0, -1], [1, -1]], [[0, -1], [1, 1]],
                 [[0, 1], [1, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]
INFINITE_BLOCKS = [[[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 2], [0, -1]], [[-1, 1], [0, -1]]]


def _block_diagonal(blocks):
    size = sum(map(len, blocks))
    rows, at = [], 0
    for block in blocks:
        rows += [[0] * at + row + [0] * (size - at - len(row)) for row in block]
        at += len(block)
    return IntMatrix(rows)


def random_action_matrix(rng):
    """A matrix of rank <= 4 made of random blocks and conjugated by a
    random unimodular matrix, so that its order is not read off its entries."""
    blocks, size = [], 0
    while size < 2 or (size < 4 and rng.random() < 0.5):
        pool = INFINITE_BLOCKS if rng.random() < 0.3 else FINITE_BLOCKS
        block = rng.choice([b for b in pool if size + len(b) <= 4] or [[[1]]])
        blocks.append(block)
        size += len(block)
    P = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(4):
        (i, j), k = rng.sample(range(size), 2), rng.choice([-2, -1, 1, 2])
        P[i] = [x + k * y for x, y in zip(P[i], P[j])]
    P = IntMatrix(P)
    return P @ _block_diagonal(blocks) @ P.inverse_unimodular()


class TestLargeExponents:
    """The order check and the Peiffer check take no power that grows with
    an exponent, and agree with m**n where it can be taken."""

    def test_order_check_agrees_with_the_power(self):
        rng = random.Random(11)
        for _ in range(60):
            m = random_action_matrix(rng)
            identity = IntMatrix.identity(m.rows)
            for n in range(2, 31):
                expected = [] if m**n == identity else [
                    f"action of generator 0 does not respect its order {n}"
                ]
                assert action_violations([m], [n]) == expected, (m.data, n)

    def test_peiffer_check_agrees_with_the_power(self):
        rng = random.Random(12)
        for _ in range(60):
            action = tuple(random_action_matrix(rng) for _ in range(rng.randint(1, 2)))
            rank = action[0].rows
            action = tuple(m for m in action if m.rows == rank)
            boundary = IntMatrix([[rng.randint(-12, 12) * rng.randint(0, 1) for _ in range(rank)]
                                  for _ in action])
            X = ModuleXMod(len(action), (), rank, action, boundary)
            identity = IntMatrix.identity(rank)
            expected = [
                f"Peiffer condition fails: d(e_{j}) does not act trivially"
                for j in range(rank) if X.rho_of_coords(boundary.column(j)) != identity
            ]
            assert [v for v in validate(X) if "Peiffer" in v] == expected, (action, boundary)

    def test_torsion_order_of_thirty_one_digits(self):
        X = ModuleXMod.from_json(HUGE_TORSION)
        assert validate(X) == [f"action of generator 0 does not respect its order {10**30}"]
        # A matrix of order 6 respects the order 6 * 10^30 and no other.
        rot6 = IntMatrix([[0, -1], [1, 1]])
        assert action_violations([rot6], [6 * 10**30]) == []
        assert action_violations([rot6], [6 * 10**30 + 2]) != []
        assert action_violations([IntMatrix([[3]])], [10**30]) != []

    def test_peiffer_coordinate_of_thirty_one_digits(self):
        X = ModuleXMod.from_json(HUGE_BOUNDARY)
        assert validate(X) == ["Peiffer condition fails: d(e_0) does not act trivially"]
        # On a matrix of finite order the coordinate reduces modulo its order.
        swap = IntMatrix([[0, 1], [1, 0]])
        for c, ok in ((2 * 10**30, True), (2 * 10**30 + 1, False)):
            X = ModuleXMod(1, (), 2, (swap,), IntMatrix([[c, c]]))
            assert (validate(X) == []) is ok


# A target whose torsion order, and one whose boundary coordinate, has 31
# digits, each on a matrix of infinite order.
HUGE_TORSION = {
    "G": {"free_rank": 0, "torsion": [10**30]},
    "rank": 2,
    "action": [[[2, 1], [1, 1]]],
    "boundary": [[0], [0]],
}
HUGE_BOUNDARY = {
    "G": {"free_rank": 1, "torsion": []},
    "rank": 3,
    "action": [[[1, 0, 0], [0, 2, 1], [0, 1, 1]]],
    "boundary": [[10**30], [0], [0]],
}


class TestFreeBoundary:
    def test_rp2_plain(self):
        M = catalog("rp2")
        e = Word.identity(M.alphabet)
        assert str(M.hword_boundary(((e, "t", 1),))) == "a^2"

    def test_torus2_plain(self):
        M = catalog("torus2")
        e = Word.identity(M.alphabet)
        assert str(M.hword_boundary(((e, "t", 1),))) == "a b a^-1 b^-1"

    def test_rp2_conjugated_inverse(self):
        # (a, t, -1): a (a^2)^-1 a^-1 = a^-2
        M = catalog("rp2")
        a = M.alphabet.gen("a")
        assert str(M.hword_boundary(((a, "t", -1),))) == "a^-2"

    def test_multiplicative(self):
        M = catalog("torus2")
        rng = random.Random(3)
        for _ in range(50):
            w1 = _random_hword(rng, M)
            w2 = _random_hword(rng, M)
            lhs = M.hword_boundary(reduce_hword(w1 + w2))
            rhs = M.hword_boundary(w1) * M.hword_boundary(w2)
            assert lhs == rhs


def _random_hword(rng, M, max_len=4):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        conj = Word(
            M.alphabet,
            [(rng.choice(M.alphabet.names), rng.choice([1, -1])) for _ in range(rng.randrange(3))],
        )
        letters.append((conj, rng.choice(M.two_cell_names()), rng.choice([1, -1])))
    return reduce_hword(letters)


def _parity_image(M, w):
    """``derivation_image`` with each exponent-sum key labelled by its
    parity, the pi_1 of rp2 and a quotient of the pi_1 of torus2."""
    return {
        cell: collect((sum(sums) % 2, c) for sums, c in terms.items())
        for cell, terms in derivation_image(M, w).items()
    }


class TestDerivationImage:
    def test_rp2_two_letters(self):
        M = catalog("rp2")
        e = Word.identity(M.alphabet)
        a = M.alphabet.gen("a")
        image = _parity_image(M, ((e, "t", 1), (a, "t", 1)))
        assert image == {"t": {0: 1, 1: 1}}

    def test_empty(self):
        M = catalog("rp2")
        assert _parity_image(M, ()) == {"t": {}}

    def test_kills_peiffer_commutators(self):
        # h h' h^-1 (^d(h) h')^-1 has zero image for random words
        rng = random.Random(17)
        for name in ("rp2", "torus2"):
            M = catalog(name)
            for _ in range(50):
                h1 = _random_hword(rng, M)
                h2 = _random_hword(rng, M)
                boundary = M.hword_boundary(h1)
                shifted = tuple((boundary * f, c, s) for f, c, s in h2)
                word = reduce_hword(
                    h1 + h2 + tuple((f, c, -s) for f, c, s in reversed(h1))
                    + tuple((f, c, -s) for f, c, s in reversed(shifted))
                )
                image = _parity_image(M, word)
                assert all(not comp for comp in image.values())


class TestHoang:
    def test_identity_crossed_module(self):
        data = hoang_data(zn_to_zn_identity(4))
        assert len(data.pi1) == 1
        assert data.pi2_invariants.is_trivial
        assert is_trivial_cocycle(data)

    def test_zero_boundary_split(self):
        Z2 = cyclic(2)
        x = FiniteCrossedModule(
            H=Z2, G=Z2, boundary=(0, 0), action=trivial_action(Z2, Z2)
        )
        data = hoang_data(x)
        assert len(data.pi1) == 2
        assert data.pi2_invariants == AbelianGroup((2,))
        assert is_trivial_cocycle(data)
        assert data.coboundary_witness() is not None

    def test_z4_mod2_z2(self):
        Z4, Z2 = cyclic(4), cyclic(2)
        x = FiniteCrossedModule(
            H=Z4,
            G=Z2,
            boundary=tuple(h % 2 for h in range(4)),
            action=trivial_action(Z2, Z4),
        )
        data = hoang_data(x)
        assert len(data.pi1) == 1
        assert data.pi2_invariants == AbelianGroup((2,))
        assert is_trivial_cocycle(data)

    def test_mult2_trivial_action_is_split(self):
        data = hoang_data(mult2_z4("trivial"))
        assert len(data.pi1) == 2
        assert data.pi2_invariants == AbelianGroup((2,))
        assert data.is_cocycle()
        assert data.coboundary_witness() is not None

    def test_mult2_inversion_action_is_nontrivial(self):
        data = hoang_data(mult2_z4("invert"))
        assert len(data.pi1) == 2
        assert data.pi2_invariants == AbelianGroup((2,))
        assert data.is_cocycle()
        assert not is_trivial_cocycle(data)
        assert data.coboundary_witness() is None

    def test_twisted_pi2(self):
        # trivial boundary Z3 -> Z2 with the inversion action of Z2 on Z3
        Z3, Z2 = cyclic(3), cyclic(2)
        act = (tuple(range(3)), tuple((-h) % 3 for h in range(3)))
        x = FiniteCrossedModule(H=Z3, G=Z2, boundary=(0, 0, 0), action=act)
        data = hoang_data(x)
        assert data.pi2_invariants == AbelianGroup((3,))
        assert data.alpha[1] != IntMatrix.identity(1)
        assert data.is_cocycle()

    def test_cocycle_suite_small_catalog(self):
        # exhaustive cocycle check over a family of crossed modules on
        # groups of order <= 8
        for build in CROSSED_MODULES.values():
            x = build()
            assert validate(x) == []
            data = hoang_data(x)
            assert data.is_cocycle()

    @pytest.mark.parametrize("name", CROSSED_MODULES)
    def test_alpha_is_the_action(self, name):
        # alpha[a] over the pi2 generators, row i read modulo the i-th
        # invariant factor, is the identity at a = 0, multiplies as pi1
        # does, and is the identity exactly where the action is.
        data = hoang_data(CROSSED_MODULES[name]())
        factors = data.pi2_invariants.invariant_factors

        def reduced(matrix):
            return tuple(tuple(x % f for x in row) for row, f in zip(matrix.data, factors))

        identity = reduced(IntMatrix.identity(len(factors)))
        assert all(m.shape == (len(factors),) * 2 for m in data.alpha)
        assert reduced(data.alpha[0]) == identity
        pi1, pi2 = data.pi1, data.pi2
        for a in pi1.elements():
            acts_trivially = all(data.act(a, h) == h for h in pi2.elements())
            assert (reduced(data.alpha[a]) == identity) == acts_trivially
            for b in pi1.elements():
                product = data.alpha[a] @ data.alpha[b]
                assert reduced(data.alpha[pi1.mul(a, b)]) == reduced(product)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_pi2_of_a_product_is_gcd_times_lcm(self, m):
        G = cyclic(1)
        for n in range(2, 13):
            H = direct_product(cyclic(m), cyclic(n))
            x = FiniteCrossedModule(H=H, G=G, boundary=(0,) * len(H), action=trivial_action(G, H))
            g = math.gcd(m, n)
            expected = AbelianGroup(tuple(f for f in (g, m * n // g) if f > 1))
            assert hoang_data(x).pi2_invariants == expected

    def test_kernel_is_central_and_abelian(self):
        for x in [zn_to_zn_identity(4), mult2_z4("trivial"), mult2_z4("invert")]:
            kernel = [h for h in x.H.elements() if x.boundary[h] == 0]
            for k in kernel:
                for h in x.H.elements():
                    assert x.H.mul(k, h) == x.H.mul(h, k)


class TestStrict2Group:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: zn_to_zn_identity(2),
            lambda: FiniteCrossedModule(
                H=cyclic(2),
                G=cyclic(2),
                boundary=(0, 0),
                action=trivial_action(cyclic(2), cyclic(2)),
            ),
            lambda: FiniteCrossedModule(
                H=cyclic(4),
                G=cyclic(2),
                boundary=tuple(h % 2 for h in range(4)),
                action=trivial_action(cyclic(2), cyclic(4)),
            ),
            lambda: mult2_z4("invert"),
        ],
    )
    def test_round_trip(self, builder):
        x = builder()
        tg = to_strict_2group(x)
        assert len(tg.two_morphisms) == len(x.H) * len(x.G)
        back = from_strict_2group(tg)
        assert crossed_modules_equal(x, back)

    def test_source_target_are_homomorphisms(self):
        x = mult2_z4("invert")
        tg = to_strict_2group(x)
        G2, G = tg.two_morphisms, tg.morphisms
        for i in G2.elements():
            for j in G2.elements():
                k = G2.mul(i, j)
                assert tg.source[k] == G.mul(tg.source[i], tg.source[j])
                assert tg.target[k] == G.mul(tg.target[i], tg.target[j])

    def test_source_and_target_of_pairs(self):
        x = zn_to_zn_identity(2)
        tg = to_strict_2group(x)
        for idx, (h, g) in enumerate(tg.pairs):
            assert tg.source[idx] == g
            assert tg.target[idx] == tg.morphisms.mul(g, x.boundary[h])
