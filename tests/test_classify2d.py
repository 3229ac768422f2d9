import itertools
import math
import random
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topsectors import classify2d
from topsectors.classify2d import (
    SectorResult,
    Sectors,
    TargetData,
    UnsupportedTargetError,
    classify_based,
    classify_free,
    classify_sectors,
    hom_lattice,
    homotopy_sublattice,
    label_of_sums,
    labelled_sum,
    layout_for,
    pi1_sectors,
    rho_table,
)
from topsectors.cohomology import CoefficientModule, twisted_second_cohomology
from topsectors.complexes import CWComplex, catalog, loads, saves, structurally_equal
from topsectors.words import Alphabet, Run, Word, fox_derivative
from topsectors.xmod import ModuleXMod, target_catalog
from topsectors.zlinalg import AbelianGroup, IntMatrix, Lattice, LatticeQuotient, solve

from runterms import expand, letters
from tables import POINCARE_ACTIONS, Z2Z2_SWAP_NEG, Z4_ROTATION

RP2 = target_catalog("rp2")
S2 = target_catalog("sphere2")
# pi_1 X = Z_(10^8) acting trivially on Z, with d = 0.
Z1E8 = ModuleXMod(
    free_rank=0, torsion=(10**8,), rank=1,
    action=(IntMatrix.identity(1),), boundary=IntMatrix.zeros(1, 1),
)


@dataclass(frozen=True)
class XModHom:
    """A crossed-module homomorphism recorded on the cells: the direct
    check that the hom lattice is tested against."""

    phi1: dict
    phi2: dict

    @staticmethod
    def from_vector(layout, vec):
        return XModHom(
            phi1={g: layout.phi1(vec, g) for g in layout.generators},
            phi2={t: layout.phi2(vec, t) for t in layout.two_cells},
        )

    def commutes(self, M, X):
        """d . phi2(t) == phi1(sigma_2(t)) in G, for every 2-cell."""
        torsion = X.torsion
        for cell, word in M.two_cells:
            lhs = X.boundary.apply(self.phi2[cell])
            sums = word.exponent_sums()
            rhs = [0] * X.num_g_generators
            for gen, s in zip(M.alphabet.names, sums):
                for j in range(X.num_g_generators):
                    rhs[j] += s * self.phi1[gen][j]
            for j in range(X.num_g_generators):
                order = 0 if j < X.free_rank else torsion[j - X.free_rank]
                diff = lhs[j] - rhs[j]
                if (diff % order if order else diff) != 0:
                    return False
        return True


def paper_triple(layout, vec):
    """Project a homomorphism vector to the (phi1(a), phi1(b), phi2(t)_0)
    bookkeeping used for two-generator sources."""
    gens = layout.generators
    coords = [layout.phi1(vec, g)[0] for g in gens]
    coords.append(layout.phi2(vec, "t")[0])
    return tuple(coords)


# ---------------------------------------------------------------------------
# Independent homotopy oracle: search the three derivation equations directly
# ---------------------------------------------------------------------------


def rp2_action_power(n):
    swap = ((0, 1), (1, 0))
    return swap if n % 2 else ((1, 0), (0, 1))


def apply2(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def theta_of_word(word, theta, psi1):
    """Evaluate the derivation rule theta(g g') = theta(g) + ^psi1(g) theta(g')
    letter by letter; theta maps generator names to vectors in Z^2."""
    total = (0, 0)
    prefix_exp = 0
    for name, sign in letters(word):
        if sign == 1:
            contrib = theta[name]
            total = tuple(
                a + b for a, b in zip(total, apply2(rp2_action_power(prefix_exp), contrib))
            )
            prefix_exp += psi1[name]
        else:
            prefix_exp -= psi1[name]
            contrib = theta[name]
            total = tuple(
                a - b for a, b in zip(total, apply2(rp2_action_power(prefix_exp), contrib))
            )
    return total


def brute_force_homotopic(M, layout, v_phi, v_psi, box=3):
    """Decide based homotopy into the projective-plane target by searching
    theta assignments over a box; independent of the lattice route."""
    gens = layout.generators
    phi1 = {g: layout.phi1(v_phi, g)[0] for g in gens}
    psi1 = {g: layout.phi1(v_psi, g)[0] for g in gens}
    phi2 = {t: layout.phi2(v_phi, t) for t in layout.two_cells}
    psi2 = {t: layout.phi2(v_psi, t) for t in layout.two_cells}
    rng = range(-box, box + 1)
    for combo in itertools.product(rng, repeat=2 * len(gens)):
        theta = {
            g: (combo[2 * i], combo[2 * i + 1]) for i, g in enumerate(gens)
        }
        if any(
            2 * (theta[g][0] + theta[g][1]) != phi1[g] - psi1[g] for g in gens
        ):
            continue
        ok = True
        for t in layout.two_cells:
            lhs = theta_of_word(M.attaching_word(t), theta, psi1)
            rhs = tuple(a - b for a, b in zip(phi2[t], psi2[t]))
            if lhs != rhs:
                ok = False
                break
        if ok:
            return True
    return False


PRODUCT_FILTER_SOURCES = [
    ("circle_wedge", {"n": 0}), ("circle_wedge", {"n": 3}), ("sphere2", {}), ("torus2", {}),
    ("rp2", {}), ("klein_bottle", {}), ("s1_wedge_s2", {}), ("genus_surface", {"g": 1}),
    ("genus_surface", {"g": 2}), ("torus_knot", {"p": 2, "q": 3}),
    ("torus_knot", {"p": 3, "q": 2}), ("torus_knot", {"p": 4, "q": 6}),
    ("torus_knot", {"p": 6, "q": 10}), ("torus3", {}), ("s1_x_s2", {}),
]
PRODUCT_FILTER_FACTORS = [(2,), (4,), (2, 2), (2, 4), (), (6,), (3, 6), (7,), (12,), (4, 12), (30,)]


class TestSectors:
    def test_torus2_four_sectors(self):
        sectors = pi1_sectors(catalog("torus2"), TargetData(RP2))
        labels = {tuple(s[g][0] for g in ("a", "b")) for s in sectors}
        assert labels == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_knot_sector_parity(self):
        # p odd, q even forces phi1(a) even
        sectors = pi1_sectors(catalog("torus_knot", p=3, q=2), TargetData(RP2))
        labels = {(s["a"][0], s["b"][0]) for s in sectors}
        assert labels == {(0, 0), (0, 1)}

    def test_sphere_target_single_sector(self):
        for name in ("torus2", "rp2"):
            assert len(pi1_sectors(catalog(name), TargetData(S2))) == 1

    def test_infinite_pi1_rejected(self):
        X = target_catalog("trivial", r=1, k=1)  # G = Z, d = 0
        with pytest.raises(UnsupportedTargetError):
            pi1_sectors(catalog("torus2"), TargetData(X))

    @pytest.mark.parametrize("make, count", [
        # 2^16 sectors into rp2, and 10^8 with a pi_1 of 10^8 labels.
        (lambda: pi1_sectors(catalog("circle_wedge", n=16), TargetData(RP2)), 2**16),
        (lambda: Sectors(catalog("s1_x_s2"), (10**8,)), 10**8),
    ], ids=["circle_wedge16", "s1_x_s2_1e8"])
    def test_sectors_are_made_as_they_are_asked_for(self, make, count):
        # The first comes without the others, or the labels, being listed.
        sectors = make()
        tracemalloc.start()
        try:
            next(iter(sectors))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak
        assert sectors.count() == count
        if count > 2**16:
            assert list(itertools.islice(sectors, 3)) == [{"a": (c,)} for c in range(3)]
            return
        listed = list(sectors)
        assert list(sectors) == listed
        assert len(sectors) == len(listed) == count
        assert sectors

    @staticmethod
    def product_filter(M, factors):
        """Every label assignment from a pool of all labels, in
        ``itertools.product`` order, kept when every relator maps to 0."""
        labels = list(itertools.product(*[range(f) for f in factors]))
        relators = [word.exponent_sums() for _, word in M.two_cells]
        return [
            dict(zip(M.alphabet.names, images))
            for images in itertools.product(labels, repeat=len(M.alphabet))
            if not any(any(label_of_sums(factors, images, sums)) for sums in relators)
        ]

    @pytest.mark.parametrize("name, params, factors", [
        # Pools of at most 2 * 10^5 label tuples, so that the filter stays fast.
        pytest.param(name, params, factors, id=f"{name}-params{i}-factors{j}")
        for i, (name, params) in enumerate(PRODUCT_FILTER_SOURCES)
        for j, factors in enumerate(PRODUCT_FILTER_FACTORS)
        if math.prod(factors) ** len(catalog(name, **params).alphabet) <= 2 * 10**5
    ])
    def test_counter_matches_product_filter(self, name, params, factors):
        # circle_wedge:0 and sphere2 have no 1-cells; () is a trivial pi_1.
        # Forms with entries left of their diagonal, whose offsets move, come
        # from klein_bottle and torus_knot with (4,), (7,), (30,) and others.
        M = catalog(name, **params)
        expected = self.product_filter(M, factors)
        assert expected and list(iter(Sectors(M, factors))) == expected
        assert Sectors(M, factors).count() == len(expected)

    def test_sectors_of_a_large_factor_are_solved_not_filtered(self, monkeypatch):
        # 10^12 candidate pairs for 10^6 sectors: each label of b is solved
        # from the relator a^2 b^-3, not found by testing the relator.
        def refuse(*args):
            raise AssertionError("a candidate was tested against the relators")

        monkeypatch.setattr(classify2d, "label_of_sums", refuse)
        M, f = catalog("torus_knot", p=2, q=3), 10**6
        sectors = Sectors(M, (f,))
        (_, word), = M.two_cells
        first = list(itertools.islice(sectors, 5))
        assert len(set(map(repr, first))) == 5
        for sector in first:
            assert sum(s * sector[g][0] for g, s in zip("ab", word.exponent_sums())) % f == 0
        assert sectors.count() == f

    def test_first_sector_without_listing_the_labels(self, monkeypatch):
        # Route 1 reads the action at the residues of a label, so no list of
        # the 10^8 labels of Z1E8 comes first.
        def refuse(self):
            raise AssertionError("the labels of pi_1 X were listed")

        monkeypatch.setattr(LatticeQuotient, "enumerate_class_coords", refuse)
        first = next(classify_sectors(catalog("torus2"), Z1E8))
        assert first.phi1 == {"a": (0,), "b": (0,)}
        assert first.based_group == AbelianGroup((0,))

    def test_free_equivalence_without_listing_the_labels(self, monkeypatch):
        # A loop acts through its matrix in the action table, so the 10^8
        # labels of Z1E8 are not walked one by one.
        def refuse(self):
            raise AssertionError("the labels of pi_1 X were listed")

        monkeypatch.setattr(LatticeQuotient, "enumerate_class_coords", refuse)
        first = next(classify_sectors(catalog("torus2"), Z1E8, free=True))
        assert first.free_equivalent((0, 0, 1), (0, 0, 1))
        assert not first.free_equivalent((0, 0, 1), (0, 0, 2))


ABC = Alphabet(["a", "b", "c"])


@st.composite
def labelled_words(draw):
    """A word over a, b, c; invariant factors (0 = infinite); a label per
    generator, with entries outside the reduced range."""
    runs = draw(
        st.lists(st.tuples(st.sampled_from(ABC.names), st.integers(-6, 6).filter(bool)), max_size=10)
    )
    factors = draw(st.lists(st.sampled_from([0, 2, 3, 4, 7]), max_size=3))
    labels = st.tuples(*[st.integers(-9, 9) for _ in factors])
    return Word(ABC, runs), tuple(factors), {g: draw(labels) for g in ABC.names}


class TestLabelOfWord:
    @given(labelled_words())
    def test_matches_exponent_sum_definition(self, case):
        word, factors, assignment = case
        sums = word.exponent_sums()
        expected = []
        for i, f in enumerate(factors):
            v = sum(s * assignment[g][i] for g, s in zip(ABC.names, sums))
            expected.append(v % f if f else v)
        images = tuple(assignment[g] for g in ABC.names)
        assert label_of_sums(factors, images, sums) == tuple(expected)

    @given(labelled_words())
    def test_reducing_letter_by_letter_agrees(self, case):
        word, factors, assignment = case
        out = [0] * len(factors)
        for name, sign in letters(word):
            out = [
                (v + sign * c) % f if f else v + sign * c
                for v, c, f in zip(out, assignment[name], factors)
            ]
        images = tuple(assignment[g] for g in ABC.names)
        assert label_of_sums(factors, images, word.exponent_sums()) == tuple(out)


def _fake_rho(label):
    """A 2 x 2 matrix that tells labels apart: any function of the label
    serves, since a block is a sum of c * rho(label) over keys."""
    v = 0
    for x in label:
        v = 1009 * v + x + 17
    return IntMatrix([[v, 1], [-3, v * v]])


def _keywise_sum(factors, images, terms):
    """The block of run terms summed one exponent-sum key at a time."""
    total = [[0, 0], [0, 0]]
    for sums, c in expand(terms).items():
        m = _fake_rho(label_of_sums(factors, images, sums))
        for row, m_row in zip(total, m.data):
            for j, x in enumerate(m_row):
                row[j] += c * x
    return total


class TestLabelledSum:
    """``labelled_sum`` walks a run's labels only until they cycle and counts
    each by the closed form; the oracle labels every key of the expansion."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(labelled_words())
    def test_fox_runs_match_keywise_sum(self, case):
        word, factors, assignment = case
        images = tuple(assignment[g] for g in ABC.names)
        for g in ABC.names:
            terms = fox_derivative(word, g)
            assert labelled_sum(2, factors, images, terms, _fake_rho) == _keywise_sum(
                factors, images, terms
            )

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        labelled_words(),
        st.sampled_from(range(3)),
        st.integers(1, 10**5),
        st.integers(-3, 3),
        st.tuples(*[st.integers(-9, 9) for _ in ABC.names]),
    )
    def test_long_run_matches_keywise_sum(self, case, gen, length, coeff, start):
        _, factors, assignment = case
        images = tuple(assignment[g] for g in ABC.names)
        terms = (Run(start, gen, length, coeff),)
        assert labelled_sum(2, factors, images, terms, _fake_rho) == _keywise_sum(
            factors, images, terms
        )

    @pytest.mark.parametrize("label", [(0,), (1,)])
    def test_long_run_into_rp2_takes_few_label_steps(self, monkeypatch, label):
        # a^(10^9) through pi_1(rp2) = Z_2, whose action has order 2: one
        # label for the run's start, then at most 2 steps before the walk is
        # back at it.
        orders, table = TargetData(RP2).rho
        assert orders == (2,)
        calls = []
        real = classify2d.label_of_sums

        def counted(factors, images, sums):
            calls.append(sums)
            assert len(calls) - 1 <= 2, "more label steps than |pi_1 X|"
            return real(factors, images, sums)

        monkeypatch.setattr(classify2d, "label_of_sums", counted)
        n = 10**9
        terms = fox_derivative(Alphabet(["a"]).word(f"a^{n}"), "a")
        block = labelled_sum(RP2.rank, orders, (label,), terms, table.__getitem__)
        # label 0: n copies of rho(0); label 1: n / 2 each of rho(0), rho(1)
        m0, m1 = table[(0,)].data, table[(1,)].data
        if label == (0,):
            assert block == [[n * x for x in row] for row in m0]
        else:
            assert block == [[n // 2 * (x + y) for x, y in zip(*rows)] for rows in zip(m0, m1)]


class TestHomLattice:
    def test_torus2_trivial_sector(self):
        M = catalog("torus2")
        data = TargetData(RP2)
        layout = layout_for(M, RP2)
        sector = {"a": (0,), "b": (0,)}
        lattice = hom_lattice(M, data).lattice(sector)
        # phi2(t)_1 = -phi2(t)_0 throughout the solution lattice
        assert (0, 0, 1, -1) in lattice
        assert (2, 0, 0, 0) in lattice
        assert (1, 0, 0, 0) not in lattice  # wrong sector lift
        assert (0, 0, 1, 0) not in lattice  # breaks commutativity

    def test_knot_commutativity_constraint(self):
        M = catalog("torus_knot", p=2, q=3)
        data = TargetData(RP2)
        sector = {"a": (1,), "b": (0,)}
        lattice = hom_lattice(M, data).lattice(sector)
        layout = layout_for(M, RP2)
        for vec in [
            (1, 0, 1, 0),
            (3, 0, 3, 0),
            (1, 2, -2, 0),
        ]:
            hom = XModHom.from_vector(layout, vec)
            assert (vec in lattice) == hom.commutes(M, RP2)
        assert (1, 0, 1, 1) not in lattice

    def test_wedge_constraint_is_kernel(self):
        M = catalog("s1_wedge_s2")
        data = TargetData(RP2)
        lattice = hom_lattice(M, data).lattice({"a": (0,)})
        assert (0, 1, -1) in lattice  # phi2 in ker d
        assert (0, 1, 0) not in lattice

    def test_every_lattice_point_commutes(self):
        rng = random.Random(7)
        for name, params in [("torus2", {}), ("torus_knot", {"p": 4, "q": 2}), ("rp2", {})]:
            M = catalog(name, **params)
            data = TargetData(RP2)
            layout = layout_for(M, RP2)
            system = hom_lattice(M, data)
            for sector in pi1_sectors(M, data):
                lattice = system.lattice(sector)
                assert lattice is not None
                for _ in range(10):
                    v = list(lattice.particular)
                    for row in lattice.directions.basis():
                        c = rng.randint(-2, 2)
                        v = [a + c * b for a, b in zip(v, row)]
                    hom = XModHom.from_vector(layout, tuple(v))
                    assert hom.commutes(M, RP2)


# G = Z x Z_2 acting on Z^2, both generators by the swap; d = (2, 2) into the
# free part, so pi_1 X = Z_2 x Z_2 and the action is nontrivial.
TORSION_SWAP = ModuleXMod(
    free_rank=1,
    torsion=(2,),
    rank=2,
    action=(IntMatrix([[0, 1], [1, 0]]), IntMatrix([[0, 1], [1, 0]])),
    boundary=IntMatrix([[2, 2], [0, 0]]),
)


def direct_sector_solution(M, data, sector):
    """The sector's homomorphism system assembled on its own and solved by
    ``zlinalg.solve``: (particular, HNF directions) on the layout
    coordinates, or None.  Unknowns: the layout, then per 1-cell one
    multiplier per relation of pi_1 X, then per 2-cell one per torsion
    order of G."""
    X = data.target
    layout = layout_for(M, X)
    gens, dim, k = layout.generators, layout.dim, layout.k
    rels, n_tor = data.relations, len(X.torsion)
    total = dim + len(gens) * len(rels) + len(M.two_cells) * n_tor
    rows, rhs = [], []
    for gi, gen in enumerate(gens):
        lift = data.lift_of_label(sector[gen])
        for coord in range(k):
            row = [0] * total
            row[layout.phi1_offset(gen) + coord] = 1
            for li, col in enumerate(rels):
                row[dim + gi * len(rels) + li] = -col[coord]
            rows.append(row)
            rhs.append(lift[coord])
    for ti, (cell, word) in enumerate(M.two_cells):
        for coord in range(k):
            row = [0] * total
            for j in range(layout.r):
                row[layout.phi2_offset(cell) + j] = X.boundary.data[coord][j]
            for gen, s in zip(gens, word.exponent_sums()):
                row[layout.phi1_offset(gen) + coord] -= s
            for si in range(n_tor):
                row[dim + len(gens) * len(rels) + ti * n_tor + si] = rels[si][coord]
            rows.append(row)
            rhs.append(0)
    sol = solve(IntMatrix(rows, cols=total), tuple(rhs))
    if sol is None:
        return None
    particular, kernel = sol
    return particular[:dim], Lattice(dim, [v[:dim] for v in kernel]).basis()


class TestHomSystemAgainstDirectSolve:
    """The one reduction per (M, X) gives, sector by sector, what solving
    that sector's own system gives."""

    CASES = [
        ("torus2", {}, RP2),
        ("klein_bottle", {}, RP2),
        ("genus_surface", {"g": 2}, RP2),
        ("torus_knot", {"p": 5, "q": 3}, RP2),
        ("torus2", {}, TORSION_SWAP),
        ("klein_bottle", {}, TORSION_SWAP),
    ]

    @pytest.mark.parametrize(
        "name,params,X",
        CASES,
        ids=[
            "torus2-rp2",
            "klein_bottle-rp2",
            "genus_surface:2-rp2",
            "torus_knot:5,3-rp2",
            "torus2-torsion_swap",
            "klein_bottle-torsion_swap",
        ],
    )
    def test_every_sector(self, name, params, X):
        M = catalog(name, **params)
        data = TargetData(X)
        system = hom_lattice(M, data)
        sectors = pi1_sectors(M, data)
        assert sectors
        for sector in sectors:
            lattice = system.lattice(sector)
            particular, directions = direct_sector_solution(M, data, sector)
            assert lattice.particular == particular
            assert lattice.directions.basis() == directions

    @pytest.mark.parametrize(
        "M,X,sector",
        [
            # the relator a^2 b^-3 maps to b's label, which is not trivial
            (catalog("torus_knot", p=2, q=3), RP2, {"a": (0,), "b": (1,)}),
            (catalog("torus_knot", p=2, q=3), TORSION_SWAP, {"a": (0, 0), "b": (0, 1)}),
        ],
        ids=["rp2", "torsion_swap"],
    )
    def test_unsolvable_sector_gives_none(self, M, X, sector):
        data = TargetData(X)
        assert direct_sector_solution(M, data, sector) is None
        assert hom_lattice(M, data).lattice(sector) is None


class TestHomotopySublattice:
    def test_torus2_even_sector_fixes_phi2(self):
        M = catalog("torus2")
        data = TargetData(RP2)
        layout = layout_for(M, RP2)
        dirs = homotopy_sublattice(hom_lattice(M, data), {"a": (0,), "b": (0,)})
        for d in dirs:
            assert layout.phi2(d, "t") == (0, 0)

    def test_torus2_odd_sector_moves_phi2(self):
        M = catalog("torus2")
        data = TargetData(RP2)
        layout = layout_for(M, RP2)
        dirs = homotopy_sublattice(hom_lattice(M, data), {"a": (1,), "b": (0,)})
        assert any(layout.phi2(d, "t") != (0, 0) for d in dirs)


class TestBasedClassification:
    def test_torus2(self):
        res = classify_based(catalog("torus2"), RP2)
        by_sector = {
            (s.phi1["a"][0], s.phi1["b"][0]): s for s in res.sectors
        }
        assert by_sector[(0, 0)].based_group == AbelianGroup((0,))
        for key in [(1, 0), (0, 1), (1, 1)]:
            assert by_sector[key].based_group == AbelianGroup((2,))
            reps = by_sector[key].quotient.representatives()
            triples = {paper_triple(res.layout, v) for v in reps}
            assert triples == {key + (0,), key + (1,)}

    def test_rp2_self_maps(self):
        res = classify_based(catalog("rp2"), RP2)
        by_sector = {s.phi1["a"][0]: s for s in res.sectors}
        assert by_sector[0].based_group == AbelianGroup((2,))
        assert by_sector[1].based_group == AbelianGroup((0,))
        reps0 = {
            (res.layout.phi1(v, "a")[0], res.layout.phi2(v, "t")[0])
            for v in by_sector[0].quotient.representatives()
        }
        assert reps0 == {(0, 0), (0, 1)}

    def test_homotopy_equations_oracle(self):
        # the lattice route agrees with a direct search over the derivation
        # equations, and (2,0,n) ~ (0,0,n) while (0,0,n) !~ (0,0,n')
        M = catalog("torus2")
        res = classify_based(M, RP2)
        layout = res.layout
        sector00 = next(
            s for s in res.sectors if s.phi1 == {"a": (0,), "b": (0,)}
        )
        quot = sector00.quotient
        for n in range(-1, 3):
            v1 = (2, 0, n, -n)
            v2 = (0, 0, n, -n)
            assert quot.same_class(v1, v2)
            assert brute_force_homotopic(M, layout, v1, v2)
            v3 = (0, 0, n + 1, -(n + 1))
            assert not quot.same_class(v2, v3)
            assert not brute_force_homotopic(M, layout, v2, v3)

    def test_oracle_on_random_pairs(self):
        M = catalog("torus2")
        res = classify_based(M, RP2)
        rng = random.Random(11)
        for sector in res.sectors:
            quot = sector.quotient
            pts = []
            amb = quot.ambient
            for _ in range(6):
                v = list(amb.particular)
                for row in amb.directions.basis():
                    c = rng.randint(-1, 1)
                    v = [a + c * b for a, b in zip(v, row)]
                pts.append(tuple(v))
            for u, v in itertools.combinations(pts, 2):
                assert quot.same_class(u, v) == brute_force_homotopic(
                    M, res.layout, u, v
                )

    def test_membership_is_equivalence_relation(self):
        res = classify_based(catalog("klein_bottle"), RP2)
        rng = random.Random(13)
        for sector in res.sectors:
            quot = sector.quotient
            amb = quot.ambient
            pts = []
            for _ in range(8):
                v = list(amb.particular)
                for row in amb.directions.basis():
                    c = rng.randint(-2, 2)
                    v = [a + c * b for a, b in zip(v, row)]
                pts.append(tuple(v))
            for u in pts:
                assert quot.same_class(u, u)
                for v in pts:
                    assert quot.same_class(u, v) == quot.same_class(v, u)


class TestKnots:
    def expected(self, p, q):
        r = math.gcd(p, q)
        if p % 2 == 0 and q % 2 == 0:
            return sorted([r, q, p, 0])
        if p % 2 == 1 and q % 2 == 0:
            return sorted([r, p])
        if p % 2 == 0 and q % 2 == 1:
            return sorted([r, q])
        return sorted([r, 1])

    def factor_of(self, group):
        if group.invariant_factors == (0,):
            return 0
        if group.is_trivial:
            return 1
        return group.invariant_factors[0]

    def test_parity_table_sweep(self):
        for p in range(1, 7):
            for q in range(1, 7):
                res = classify_based(catalog("torus_knot", p=p, q=q), RP2)
                got = sorted(self.factor_of(s.based_group) for s in res.sectors)
                assert got == self.expected(p, q), (p, q)

    def test_even_even_representatives(self):
        res = classify_based(catalog("torus_knot", p=4, q=2), RP2)
        layout = res.layout
        by_sector = {(s.phi1["a"][0], s.phi1["b"][0]): s for s in res.sectors}
        reps = {
            paper_triple(layout, v)[2] % 4
            for v in by_sector[(0, 1)].quotient.representatives()
        }
        assert reps == {0, 1, 2, 3}  # Z_p classes enumerated by phi2(t)_0 mod p

    def test_free_orbit_identifications(self):
        # [1,0,x] ~ [1,0,p/2 - x] for the (1,0) sector when p, q even
        p, q = 4, 2
        res = classify_free(catalog("torus_knot", p=p, q=q), RP2)
        by_sector = {(s.phi1["a"][0], s.phi1["b"][0]): s for s in res.sectors}
        sector = by_sector[(1, 0)]
        layout = res.layout
        reps = sector.quotient.representatives()
        values = [paper_triple(layout, v)[2] % q for v in reps]
        for orbit in sector.free_orbits:
            xs = {values[i] for i in orbit}
            expected = set()
            for x in xs:
                expected.add(x)
                expected.add((p // 2 - x) % q)
            assert xs == expected

    def test_trefoil_three_classes(self):
        res = classify_free(catalog("torus_knot", p=2, q=3), RP2)
        assert res.total_free_classes() == 3

    def test_knot_determinant(self):
        # nontrivial based classes of a (p, q) torus knot: q if p even,
        # p if q even, 1 if both odd
        for p in range(1, 7):
            for q in range(1, 6):
                if math.gcd(p, q) != 1:
                    continue
                res = classify_based(catalog("torus_knot", p=p, q=q), RP2)
                total = 0
                for s in res.sectors:
                    order = s.based_group.order()
                    assert order is not None
                    total += order
                nontrivial = total - 1
                if p % 2 == 0:
                    assert nontrivial == q
                elif q % 2 == 0:
                    assert nontrivial == p
                else:
                    assert nontrivial == 1


class TestFreeClassification:
    def test_torus2_free(self):
        res = classify_free(catalog("torus2"), RP2)
        by_sector = {(s.phi1["a"][0], s.phi1["b"][0]): s for s in res.sectors}
        # the Z sector folds n ~ -n
        s00 = by_sector[(0, 0)]
        q = s00.quotient
        for n in range(4):
            assert s00.free_equivalent((0, 0, n, -n), (0, 0, -n, n))
        assert not s00.free_equivalent((0, 0, 1, -1), (0, 0, 2, -2))
        assert s00.canonical_free_class(q.class_coords((0, 0, -5, 5))) == q.class_coords(
            (0, 0, 5, -5)
        )
        # the three twisted sectors keep two classes each
        for key in [(1, 0), (0, 1), (1, 1)]:
            assert by_sector[key].free_orbits == [[0], [1]]

    def test_rp2_free(self):
        res = classify_free(catalog("rp2"), RP2)
        by_sector = {s.phi1["a"][0]: s for s in res.sectors}
        assert by_sector[0].free_orbits == [[0], [1]]
        s1 = by_sector[1]
        # [1, n] ~ [1, 1-n]
        for n in range(-2, 4):
            assert s1.free_equivalent((1, n, 1 - n), (1, 1 - n, n))
        assert not s1.free_equivalent((1, 0, 1), (1, 2, -1))

    def test_klein_bottle_free_structure(self):
        res = classify_free(catalog("klein_bottle"), RP2)
        by_sector = {(s.phi1["a"][0], s.phi1["b"][0]): s for s in res.sectors}
        assert len(by_sector[(0, 0)].free_orbits) == 2
        assert len(by_sector[(1, 0)].free_orbits) == 1
        assert len(by_sector[(0, 1)].free_orbits) == 1
        s11 = by_sector[(1, 1)]
        assert s11.based_group == AbelianGroup((0,))
        for n in range(3):
            assert s11.free_equivalent((1, 1, n, -n), (1, 1, -n, n))

    def test_genus_surfaces(self):
        for g in (1, 2, 3):
            res = classify_free(catalog("genus_surface", g=g), RP2)
            finite = [s for s in res.sectors if s.is_finite]
            infinite = [s for s in res.sectors if not s.is_finite]
            assert len(infinite) == 1
            assert infinite[0].based_group == AbelianGroup((0,))
            assert len(finite) == 2 ** (2 * g) - 1
            for s in finite:
                assert s.based_group == AbelianGroup((2,))
                assert s.free_orbits == [[0], [1]]

    @pytest.mark.parametrize("classify", [classify_free, classify_based])
    def test_every_orbit_pass_inside_the_call(self, monkeypatch, classify):
        calls = []
        orbit_of_class = SectorResult.orbit_of_class

        def counted(sector, coords):
            calls.append(coords)
            return orbit_of_class(sector, coords)

        monkeypatch.setattr(SectorResult, "orbit_of_class", counted)
        res = classify(catalog("genus_surface", g=2), RP2)
        classes = sum(len(s.quotient.representatives()) for s in res.sectors if s.is_finite)
        assert len(calls) == (classes if classify is classify_free else 0)
        orbits = [s.free_orbits for s in res.sectors]
        assert len(calls) == (classes if classify is classify_free else 0)
        based = classify is classify_based
        assert [o is None for o in orbits] == [based or not s.is_finite for s in res.sectors]

    @pytest.mark.parametrize("name, params", [
        ("genus_surface", {"g": 2}), ("genus_surface", {"g": 3}), ("circle_wedge", {"n": 5}),
    ])
    def test_streamed_orbits_equal_the_classification(self, name, params):
        M = catalog(name, **params)
        streamed = [s.free_orbits for s in classify2d.classify_sectors(M, RP2, free=True)]
        assert streamed == [s.free_orbits for s in classify_free(M, RP2).sectors]

    def test_orbits_partition_representatives(self):
        res = classify_free(catalog("torus_knot", p=4, q=6), RP2)
        for s in res.sectors:
            if s.free_orbits is None:
                continue
            flat = sorted(i for orbit in s.free_orbits for i in orbit)
            assert flat == list(range(len(s.quotient.representatives())))


class TestWedge:
    """S^1 v S^2 -> X in closed form: |pi_1 X| sectors, each with based
    classes ker(d) = Z^rank, and free classes their pi_1 X orbits under the
    action on pi_2 (conjugation is trivial)."""

    def test_rp2_target_data(self):
        data = TargetData(RP2)
        assert len(data.kernel_basis) == 1
        assert data.pi1.group == AbelianGroup((2,))
        assert data.pi2_action[0] == IntMatrix([[-1]])

    @pytest.mark.parametrize("X", [S2, target_catalog("trivial", r=1, k=0)], ids=["sphere2", "trivial"])
    def test_simply_connected_target_data(self, X):
        data = TargetData(X)
        assert len(data.kernel_basis) == 1
        assert data.pi1.group.is_trivial

    def test_rp2_classification_matches_closed_form(self):
        # Two sectors, each Z, and the loop of RP2 acts by -1 on pi_2.
        res = classify_free(catalog("s1_wedge_s2"), RP2)
        assert len(res.sectors) == 2
        for s in res.sectors:
            assert s.based_group == AbelianGroup((0,))
            # sign action folds n ~ -n within each sector
            assert s.free_equivalent((s.phi1["a"][0], 1, -1), (s.phi1["a"][0], -1, 1))


class TestRhoTable:
    @staticmethod
    def power_loop(matrices, factors, label, rank):
        """rho of a label by matrix powers, one label at a time."""
        out = IntMatrix.identity(rank)
        for m, c, f in zip(matrices, label, factors):
            c = c % f if f else c
            if c:
                out = out @ m**c
        return out

    def check_table(self, matrices, factors, rank):
        """``rho_table`` entry by entry: one entry per residue tuple, equal to
        the per-label powers of every label of Z_f1 x ... x Z_fn reduced by
        the orders."""
        orders, table = rho_table(matrices, rank)
        assert all(f % o == 0 for f, o in zip(factors, orders))
        assert sorted(table) == list(itertools.product(*map(range, orders)))
        for label in itertools.product(*map(range, factors)):
            residues = tuple(c % o for c, o in zip(label, orders))
            expected = self.power_loop(matrices, factors, label, rank)
            assert table[residues] == self.power_loop(matrices, orders, residues, rank) == expected

    @pytest.mark.parametrize("X", [RP2, Z4_ROTATION, Z2Z2_SWAP_NEG], ids=["rp2", "z4", "z2z2"])
    def test_tables_match_per_label_powers(self, X):
        # Every pi_1 X label, read at its residues mod the orders, gets the
        # action of its lift and the pi_2 power loop.
        data = TargetData(X)
        factors = data.pi1.group.invariant_factors
        matrices = [X.rho_of_coords(g) for g in data.pi1.generator_vectors]
        rank = len(data.kernel_basis)
        (orders, rho), (pi2_orders, pi2_rho) = data.rho, data.pi2_rho
        assert data.rho == rho_table(matrices, X.rank)
        assert data.pi2_rho == rho_table(data.pi2_action, rank)
        for label in data.labels():
            assert rho[tuple(c % o for c, o in zip(label, orders))] == X.rho_of_coords(
                data.lift_of_label(label)
            )
            expected = self.power_loop(data.pi2_action, factors, label, rank)
            assert pi2_rho[tuple(c % o for c, o in zip(label, pi2_orders))] == expected
        self.check_table(matrices, factors, X.rank)
        self.check_table(data.pi2_action, factors, rank)

    def test_product_order_kept_without_commuting(self):
        # rho(c) is m_1^c_1 m_2^c_2 in that order, even when the m_i do not commute.
        swap, reflect = IntMatrix([[0, 1], [1, 0]]), IntMatrix([[1, 0], [0, -1]])
        orders, table = rho_table((swap, reflect), 2)
        assert orders == (2, 2)
        for label in itertools.product(range(2), repeat=2):
            assert table[label] == self.power_loop((swap, reflect), (2, 2), label, 2)
        assert table[(1, 1)] != reflect @ swap

    @pytest.mark.parametrize(
        "factors, action", [case[1:] for case in POINCARE_ACTIONS],
        ids=[case[0] for case in POINCARE_ACTIONS],
    )
    def test_table_of_a_pi3_action(self, factors, action):
        self.check_table([IntMatrix(m) for m in action], factors, len(action[0]))

    def test_identity_has_one_entry(self):
        assert rho_table([IntMatrix.identity(3)] * 2, 3) == ((1, 1), {(0, 0): IntMatrix.identity(3)})
        assert rho_table([IntMatrix.identity(0)], 0) == ((1,), {(0,): IntMatrix.identity(0)})

    def test_z6_by_minus_one_has_order_2(self):
        minus = IntMatrix([[-1]])
        assert rho_table([minus], 1) == ((2,), {(0,): IntMatrix.identity(1), (1,): minus})
        self.check_table([minus], [6], 1)


class TestOrbitsOnClassCoordinates:
    @pytest.mark.parametrize("X", [RP2, Z4_ROTATION], ids=["rp2", "z4"])
    @pytest.mark.parametrize(
        "M",
        [catalog("genus_surface", g=2), catalog("klein_bottle"), catalog("torus_knot", p=4, q=6)],
        ids=["genus2", "klein", "knot46"],
    )
    def test_orbit_equals_vector_walk(self, M, X):
        res = classify_based(M, X)
        labels = TargetData(X).labels()
        finite = [s for s in res.sectors if s.is_finite]
        assert finite
        for s in finite:
            q = s.quotient
            for coords in q.enumerate_class_coords():
                rep = q.representative(coords)
                walk = {q.class_coords(s.act(label, rep)) for label in labels}
                assert s.orbit_of_class(coords) == sorted(walk)


ORACLE_SOURCES = [
    catalog(name, **params) for name, params in [
        ("sphere2", {}), ("torus2", {}), ("rp2", {}), ("klein_bottle", {}), ("s1_wedge_s2", {}),
        ("circle_wedge", {"n": 2}), ("genus_surface", {"g": 2}),
        ("torus_knot", {"p": 2, "q": 3}), ("torus_knot", {"p": 4, "q": 6}),
    ]
]
ORACLE_TARGETS = [RP2, Z4_ROTATION, Z2Z2_SWAP_NEG]


def burnside_count(sector, labels):
    """The number of pi_1 X orbits on a finite sector's classes by Burnside's
    lemma, (1/|pi_1 X|) sum_g |Fix(g)|, with each Fix(g) counted by moving
    every class's representative with ``act``: nothing from ``loop_maps``."""
    q = sector.quotient
    fixed = sum(
        q.class_coords(sector.act(g, q.representative(c))) == c
        for g in labels for c in q.enumerate_class_coords()
    )
    assert fixed % len(labels) == 0
    return fixed // len(labels)


def assert_action_law(sector, data, limit=None):
    """act(g + h) and act(g) after act(h) give the same class, for every pair
    of loops and the first ``limit`` classes with each free class coordinate
    in {-1, 2}."""
    q = sector.quotient
    factors = data.pi1.group.invariant_factors
    labels = data.labels()
    ranges = (range(d) if d else (-1, 2) for d in q.group.invariant_factors)
    for c in itertools.islice(itertools.product(*ranges), limit):
        v = q.representative(c)
        for g, h in itertools.product(labels, repeat=2):
            gh = tuple((a + b) % d for a, b, d in zip(g, h, factors))
            assert q.class_coords(sector.act(gh, v)) == q.class_coords(
                sector.act(g, sector.act(h, v))
            ), (sector.phi1, g, h, c)


class TestFreeClassOracle:
    """Free classes checked against the action itself, not the orbit pass."""

    @pytest.mark.parametrize("X", ORACLE_TARGETS, ids=["rp2", "z4", "z2z2"])
    def test_burnside_count(self, X):
        labels = TargetData(X).labels()
        finite = 0
        for M in ORACLE_SOURCES:
            for s in classify_free(M, X).sectors:
                if s.is_finite:
                    finite += 1
                    assert len(s.free_orbits) == burnside_count(s, labels), (M.name, s.phi1)
        assert finite

    @pytest.mark.parametrize("X", ORACLE_TARGETS, ids=["rp2", "z4", "z2z2"])
    def test_action_law(self, X):
        data = TargetData(X)
        for M in ORACLE_SOURCES:
            for s in classify_based(M, X).sectors:
                assert_action_law(s, data)


@st.composite
def small_2_complexes(draw):
    """A 2-complex on at most 3 generators with at most 2 relators, each of at
    most 4 runs with exponents in +-1..+-3."""
    names = ["a", "b", "c"][: draw(st.integers(0, 3))]
    runs = (
        st.lists(st.tuples(st.sampled_from(names), st.integers(-3, 3).filter(bool)), max_size=4)
        if names
        else st.just([])
    )
    relators = draw(st.lists(runs, max_size=2))
    alphabet = Alphabet(names)
    return CWComplex(names, [(f"t{i}", Word(alphabet, r)) for i, r in enumerate(relators)])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(small_2_complexes())
def test_file_form_round_trips_on_random_2_complexes(M):
    assert structurally_equal(loads(saves(M)), M)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_2_complexes())
def test_routes_agree_on_random_2_complexes(M):
    """Route 1's based group equals twisted H^2 of the source, sector by
    sector, for random presentations and three targets."""
    for X in (RP2, Z4_ROTATION, Z2Z2_SWAP_NEG):
        for sector in classify_based(M, X).sectors:
            coeffs = CoefficientModule.for_target_sector(sector.target_data, sector.phi1)
            assert twisted_second_cohomology(M, coeffs) == sector.based_group, (M.two_cells, X)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(small_2_complexes())
def test_free_class_oracle_on_random_2_complexes(M):
    for X in ORACLE_TARGETS:
        data = TargetData(X)
        for s in classify_free(M, X).sectors:
            if s.is_finite:
                assert len(s.free_orbits) == burnside_count(s, data.labels()), (M.two_cells, X)
            assert_action_law(s, data, limit=4)
