"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison here is exact (integer groups, representative sets, orbit
partitions); there are no tolerances anywhere.  Run with ``pytest -s`` to
see the per-criterion lines as they pass.
"""

import itertools
import math
import random

from topsectors.classify2d import TargetData, classify_based, classify_free, pi1_sectors
from topsectors.cohomology import (
    CoefficientModule,
    special_case_classify,
    twisted_second_cohomology,
)
from topsectors.complexes import catalog
from topsectors.dim3 import cup_preset, cylinder_preset, pontrjagin_sector_group, sector_group_s2
from topsectors.fingrp import cyclic, symmetric
from topsectors.words import Alphabet, Word, fox_derivative
from topsectors.xmod import (
    FiniteCrossedModule,
    ModuleXMod,
    from_strict_2group,
    hoang_data,
    target_catalog,
    to_strict_2group,
    validate,
)
from topsectors.zlinalg import AbelianGroup, IntMatrix, smith_normal_form

from runterms import expand
from tables import crossed_modules_equal, direct_product, is_trivial_cocycle

RP2 = target_catalog("rp2")

Z = AbelianGroup((0,))
Z2 = AbelianGroup((2,))
TRIVIAL = AbelianGroup(())


def _pass(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def zn(n):
    return AbelianGroup(()) if n == 1 else AbelianGroup.from_factors([n])


def triple(layout, vec):
    """(phi1 values..., phi2(t)_0) in the order of the 1-cells."""
    out = [layout.phi1(vec, g)[0] for g in layout.generators]
    out.append(layout.phi2(vec, "t")[0])
    return tuple(out)


def by_sector(res):
    return {
        tuple(label[0] for label in s.phi1.values()): s for s in res.sectors
    }


def test_criterion_1_torus2():
    res = classify_free(catalog("torus2"), RP2)
    sectors = by_sector(res)
    assert set(sectors) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    # based groups with sector attribution
    assert sectors[(0, 0)].based_group == Z
    for key in [(1, 0), (0, 1), (1, 1)]:
        assert sectors[key].based_group == Z2

    # representative sets, exactly as [phi1(a), phi1(b), phi2(t)_0]
    s00 = sectors[(0, 0)]
    (base,) = s00.representatives()
    (gen,) = s00.free_generators()
    assert triple(res.layout, base) == (0, 0, 0)
    assert triple(res.layout, gen) in ((0, 0, 1), (0, 0, -1))
    family = {
        triple(res.layout, tuple(b + n * g for b, g in zip(base, gen)))
        for n in range(-3, 4)
    }
    assert family == {(0, 0, n) for n in range(-3, 4)}
    for key in [(1, 0), (0, 1), (1, 1)]:
        reps = {triple(res.layout, v) for v in sectors[key].representatives()}
        assert reps == {key + (0,), key + (1,)}

    # free classes: the Z sector folds n ~ -n, the three Z_2 sectors are rigid
    q = s00.quotient
    for n in range(5):
        assert s00.free_equivalent((0, 0, n, -n), (0, 0, -n, n))
        canonical = s00.canonical_free_class(q.class_coords((0, 0, -n, n)))
        assert q.representative(canonical) == q.sub_lattice.reduce((0, 0, n, -n))
    assert not s00.free_equivalent((0, 0, 1, -1), (0, 0, 2, -2))
    for key in [(1, 0), (0, 1), (1, 1)]:
        assert sectors[key].free_orbits == [[0], [1]]
    _pass(1, "[T^2, RP^2]: Z u Z_2 u Z_2 u Z_2 with the listed representatives")


def test_criterion_2_rp2_self_maps():
    res = classify_free(catalog("rp2"), RP2)
    sectors = {s.phi1["a"][0]: s for s in res.sectors}
    assert sectors[0].based_group == Z2
    assert sectors[1].based_group == Z

    reps0 = {triple(res.layout, v) for v in sectors[0].representatives()}
    assert reps0 == {(0, 0), (0, 1)}
    s1 = sectors[1]
    (base,) = s1.representatives()
    (gen,) = s1.free_generators()
    family = {
        triple(res.layout, tuple(b + n * g for b, g in zip(base, gen)))
        for n in range(-4, 5)
    }
    assert len(family) == 9 and all(t[0] == 1 for t in family)
    covered = {t[1] for t in family}
    assert covered == set(range(min(covered), max(covered) + 1))

    # free: [0,0] and [0,1] fixed; [1,n] ~ [1,1-n]
    assert sectors[0].free_orbits == [[0], [1]]
    for n in range(-3, 5):
        assert s1.free_equivalent((1, n, 1 - n), (1, 1 - n, n))
        if n != 0:  # [1, n] ~ [1, m] only for m in {n, 1 - n}
            assert not s1.free_equivalent((1, n, 1 - n), (1, n + 1, -n))
    canon = {
        s1.quotient.representative(
            s1.canonical_free_class(s1.quotient.class_coords((1, n, 1 - n)))
        )
        for n in range(-5, 7)
    }
    assert len(canon) == 6  # orbits {n, 1-n} over n in [-5, 7) collapse in pairs
    _pass(2, "[RP^2, RP^2]: Z_2 u Z based; free = {[0,0], [0,1], [1,N]}")


def test_criterion_3_knot_parity_table():
    for p in range(1, 7):
        for q in range(1, 7):
            r = math.gcd(p, q)
            res = classify_free(catalog("torus_knot", p=p, q=q), RP2)
            sectors = by_sector(res)
            if p % 2 == 0 and q % 2 == 0:
                expected = {(0, 0): zn(r), (1, 0): zn(q), (0, 1): zn(p), (1, 1): Z}
            elif p % 2 == 1 and q % 2 == 0:
                expected = {(0, 0): zn(r), (0, 1): zn(p)}
            elif p % 2 == 0 and q % 2 == 1:
                expected = {(0, 0): zn(r), (1, 0): zn(q)}
            else:
                expected = {(0, 0): zn(r), (1, 1): TRIVIAL}
            assert {k: s.based_group for k, s in sectors.items()} == expected, (p, q)

            # free identifications: [x] ~ [c - x] with c = (p phi_a - q phi_b)/2
            layout = res.layout
            for key, s in sectors.items():
                c = (p * key[0] - q * key[1]) // 2
                order = s.based_group.order()
                if order is None:
                    for n in range(3):
                        v = next(iter(s.representatives()))
                        x = triple(layout, v)[2]
                        w = list(v)
                        w[layout.phi2_offset("t")] = c - x
                        w[layout.phi2_offset("t") + 1] = v[layout.phi2_offset("t")]
                        assert s.free_equivalent(v, tuple(w))
                    continue
                values = [triple(layout, v)[2] % order if order > 1 else 0 for v in s.representatives()]
                for orbit in s.free_orbits:
                    xs = {values[i] for i in orbit}
                    assert xs == {x % order if order > 1 else 0 for x in
                                  itertools.chain(xs, ((c - x) for x in xs))}, (p, q, key)

    res = classify_free(catalog("torus_knot", p=2, q=3), RP2)
    assert res.total_free_classes() == 3
    _pass(3, "[M_pq, RP^2] parity table over 1 <= p,q <= 6; trefoil has 3 sectors")


def test_criterion_4_klein_bottle():
    M = catalog("klein_bottle")
    res = classify_free(M, RP2)
    sectors = by_sector(res)
    expected = {(0, 0): Z2, (0, 1): Z2, (1, 0): Z2, (1, 1): Z}
    assert {k: s.based_group for k, s in sectors.items()} == expected

    data = TargetData(RP2)
    for key, s in sectors.items():
        coeffs = CoefficientModule.for_target_sector(data, s.phi1)
        assert twisted_second_cohomology(M, coeffs) == s.based_group

    # free structure 2 + 1 + 1 + N
    assert len(sectors[(0, 0)].free_orbits) == 2
    assert len(sectors[(1, 0)].free_orbits) == 1
    assert len(sectors[(0, 1)].free_orbits) == 1
    s11 = sectors[(1, 1)]
    for n in range(4):
        assert s11.free_equivalent((1, 1, n, -n), (1, 1, -n, n))
    assert not s11.free_equivalent((1, 1, 1, -1), (1, 1, 2, -2))
    _pass(4, "Klein bottle: based (Z_2, Z_2, Z_2, Z) = twisted H^2; free 2+1+1+N")


def test_criterion_5_genus_surfaces():
    for g in (1, 2, 3):
        res = classify_free(catalog("genus_surface", g=g), RP2)
        trivial_key = tuple(0 for _ in range(2 * g))
        sectors = by_sector(res)
        assert len(sectors) == 2 ** (2 * g)
        s0 = sectors[trivial_key]
        assert s0.based_group == Z
        for n in range(3):
            vec = [0] * res.layout.dim
            vec[res.layout.phi2_offset("t")] = n
            vec[res.layout.phi2_offset("t") + 1] = -n
            flipped = list(vec)
            flipped[res.layout.phi2_offset("t")] = -n
            flipped[res.layout.phi2_offset("t") + 1] = n
            assert s0.free_equivalent(tuple(vec), tuple(flipped))
        for key, s in sectors.items():
            if key == trivial_key:
                continue
            assert s.based_group == Z2
            assert s.free_orbits == [[0], [1]]
    _pass(5, "[Sigma_g, RP^2] = N u (2^(2g) - 1) copies of Z_2 for g = 1, 2, 3")


def test_criterion_6_oracle_equivalence():
    spaces = [
        catalog("sphere2"),
        catalog("torus2"),
        catalog("rp2"),
        catalog("genus_surface", g=2),
        catalog("genus_surface", g=3),
        catalog("klein_bottle"),
        catalog("s1_wedge_s2"),
        catalog("circle_wedge", n=2),
    ] + [
        catalog("torus_knot", p=p, q=q)
        for p in range(1, 5)
        for q in range(1, 5)
    ]
    targets = [RP2, target_catalog("sphere2"), target_catalog("trivial", r=2, k=0)]
    checked = 0
    for X in targets:
        data = TargetData(X)
        for M in spaces:
            res = classify_based(M, X)
            for sector in res.sectors:
                coeffs = CoefficientModule.for_target_sector(data, sector.phi1)
                assert twisted_second_cohomology(M, coeffs) == sector.based_group
                checked += 1
    assert checked > 100
    _pass(6, f"lattice route == twisted H^2 on {checked} (space, sector) pairs")


def test_criterion_7_lens_spaces():
    T = catalog("torus3")
    for p in (2, 3, 5):
        res = special_case_classify(T, [p], 1)
        assert len(res.sectors) == p**3
        assert all(s.group == Z for s in res.sectors)
        assert res.action_is_trivial  # orientable: free classes = based classes
    so3 = special_case_classify(T, [2], 1)
    assert len(so3.sectors) == 8 and all(s.group == Z for s in so3.sectors)
    _pass(7, "[T^3, L_pq] = p^3 copies of Z for p in {2,3,5}; [T^3, SO(3)] = (Z_2)^3 x Z")


def test_criterion_8_sphere_target_both_routes():
    preset = cylinder_preset(catalog("s1_x_s2"))
    cup = cup_preset("s1_x_s2")
    for q in range(-5, 6):
        lattice_route = sector_group_s2(preset, {"t": q})
        cup_route = pontrjagin_sector_group(cup, (q,))
        expected = zn(2 * abs(q)) if q else Z
        assert lattice_route == cup_route == expected, q

    preset = cylinder_preset(catalog("torus3"))
    cup = cup_preset("torus3")
    for q in itertools.product(range(-5, 6), repeat=3):
        lattice_route = sector_group_s2(preset, dict(zip("tuv", q)))
        cup_route = pontrjagin_sector_group(cup, q)
        g = math.gcd(math.gcd(abs(q[0]), abs(q[1])), abs(q[2]))
        expected = zn(2 * g) if g else Z
        assert lattice_route == cup_route == expected, q
    _pass(8, "[S^1 x S^2, S^2] and [T^3, S^2]: both routes agree on all |q_i| <= 5")


def test_criterion_9_knot_determinant():
    for p in range(1, 7):
        for q in range(1, 6):
            if math.gcd(p, q) != 1:
                continue
            res = classify_based(catalog("torus_knot", p=p, q=q), RP2)
            total = sum(s.based_group.order() for s in res.sectors)
            nontrivial = total - 1
            if p % 2 == 0:
                assert nontrivial == q, (p, q)
            elif q % 2 == 0:
                assert nontrivial == p, (p, q)
            else:
                assert nontrivial == 1, (p, q)
    _pass(9, "nontrivial based classes of coprime (p, q) match the knot determinant")


# --- criterion 10: property suites -----------------------------------------


def _random_word(rng, alphabet, max_len=10):
    return Word(
        alphabet,
        [
            (rng.choice(alphabet.names), rng.choice([1, -1]))
            for _ in range(rng.randrange(max_len + 1))
        ],
    )


def _trivial_action(G, H):
    return tuple(tuple(range(len(H))) for _ in range(len(G)))


def test_criterion_10a_fox_properties():
    # In Z[Z^n], with a term t^v kept as {v: coefficient}.
    def add(*elems):
        out = {}
        for elem in elems:
            for key, c in elem.items():
                out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c}

    def shift(elem, v):
        return {tuple(x + y for x, y in zip(key, v)): c for key, c in elem.items()}

    alphabet = Alphabet(["a", "b", "c"])
    rng = random.Random(2024)
    zero = (0, 0, 0)
    for _ in range(500):
        u, v = _random_word(rng, alphabet), _random_word(rng, alphabet)
        for g in alphabet.names:
            assert expand(fox_derivative(u * v, g)) == add(
                expand(fox_derivative(u, g)),
                shift(expand(fox_derivative(v, g)), u.exponent_sums()),
            )
        total = {}
        for g in alphabet.names:
            d = expand(fox_derivative(u, g))
            minus_d = {key: -c for key, c in d.items()}
            total = add(total, shift(d, alphabet.gen(g).exponent_sums()), minus_d)
        assert total == add({u.exponent_sums(): 1}, {zero: -1})
    _pass(10, "Fox product rule and fundamental identity on 500 random words")


def test_criterion_10b_snf_properties():
    rng = random.Random(777)
    for _ in range(500):
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        A = IntMatrix(
            [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        )
        dec = smith_normal_form(A)
        assert dec.U @ dec.S @ dec.V == A
        assert dec.U.det() in (1, -1) and dec.V.det() in (1, -1)
        diag = dec.diagonal
        assert all(d >= 0 for d in diag)
        for d1, d2 in zip(diag, diag[1:]):
            assert (d1 == 0 and d2 == 0) or (d1 != 0 and d2 % d1 == 0)
    _pass(10, "SNF reconstruction, unimodularity, divisibility on 500 random matrices")


def test_criterion_10c_axiom_validation():
    # all catalog targets accepted
    accepted = [
        target_catalog("rp2"),
        target_catalog("sphere2"),
        target_catalog("trivial", r=2, k=0),
        target_catalog("trivial", r=1, k=1),
    ]
    for X in accepted:
        assert validate(X) == []

    swap = IntMatrix([[0, 1], [1, 0]])
    Z4, S3 = cyclic(4), symmetric(3)
    inversion = tuple(tuple(((-1) ** g * h) % 4 for h in range(4)) for g in range(4))
    mutants = [
        ModuleXMod(1, (), 2, (swap,), IntMatrix([[1, 1]])),  # Peiffer fails
        ModuleXMod(1, (), 2, (swap,), IntMatrix([[2, -2]])),  # equivariance fails
        ModuleXMod(0, (3,), 1, (IntMatrix([[-1]]),), IntMatrix.zeros(1, 1)),  # order
        ModuleXMod(1, (), 1, (IntMatrix([[2]]),), IntMatrix.zeros(1, 1)),  # not in GL
        FiniteCrossedModule(  # nonabelian H with zero boundary, trivial action
            H=S3, G=cyclic(1), boundary=(0,) * 6, action=_trivial_action(cyclic(1), S3)
        ),
        FiniteCrossedModule(  # identity boundary with a non-conjugation action
            H=Z4, G=Z4, boundary=tuple(range(4)), action=inversion
        ),
    ]
    for mutant in mutants:
        assert validate(mutant), "mutant accepted"
    assert len(mutants) >= 5
    _pass(10, "axiom validation accepts catalog targets, rejects the mutants")


def test_criterion_10d_hoang_cocycles():
    Z2, Z3, Z4, Z6, Z8 = (cyclic(n) for n in (2, 3, 4, 6, 8))
    klein = direct_product(Z2, Z2)
    mult2_trivial = FiniteCrossedModule(
        H=Z4, G=Z4, boundary=tuple((2 * h) % 4 for h in range(4)),
        action=_trivial_action(Z4, Z4),
    )
    mult2_twisted = FiniteCrossedModule(
        H=Z4, G=Z4, boundary=tuple((2 * h) % 4 for h in range(4)),
        action=tuple(tuple(((-1) ** g * h) % 4 for h in range(4)) for g in range(4)),
    )
    family = [
        FiniteCrossedModule(H=Z2, G=Z2, boundary=(0, 0), action=_trivial_action(Z2, Z2)),
        FiniteCrossedModule(H=Z4, G=Z4, boundary=tuple(range(4)),
                            action=_trivial_action(Z4, Z4)),
        FiniteCrossedModule(H=Z8, G=Z8, boundary=tuple(range(8)),
                            action=_trivial_action(Z8, Z8)),
        FiniteCrossedModule(H=Z4, G=Z2, boundary=tuple(h % 2 for h in range(4)),
                            action=_trivial_action(Z2, Z4)),
        FiniteCrossedModule(H=Z6, G=Z3, boundary=tuple(h % 3 for h in range(6)),
                            action=_trivial_action(Z3, Z6)),
        FiniteCrossedModule(H=klein, G=Z2, boundary=(0, 0, 0, 0),
                            action=_trivial_action(Z2, klein)),
        FiniteCrossedModule(H=Z2, G=Z4, boundary=(0, 2), action=_trivial_action(Z4, Z2)),
        FiniteCrossedModule(H=Z3, G=Z2, boundary=(0, 0, 0),
                            action=(tuple(range(3)), tuple((-h) % 3 for h in range(3)))),
        mult2_trivial,
        mult2_twisted,
        FiniteCrossedModule(H=Z4, G=klein, boundary=(0,) * 4,
                            action=_trivial_action(klein, Z4)),
    ]
    for x in family:
        assert max(len(x.H), len(x.G)) <= 8
        assert validate(x) == []
        data = hoang_data(x)
        assert data.is_cocycle()  # exhaustive delta beta = 0
        if len(data.pi1) <= 4 and len(data.pi2) <= 4:
            witness = data.coboundary_witness()
            if is_trivial_cocycle(data):
                assert witness is not None
    # the split examples are certified by an explicit witness
    split = hoang_data(mult2_trivial)
    assert split.coboundary_witness() is not None
    # and the inversion twist realizes a class with no witness at all
    twisted = hoang_data(mult2_twisted)
    assert twisted.coboundary_witness() is None
    _pass(10, "Hoang beta: delta beta = 0 exhaustively; split cases certified")


def test_criterion_10e_2group_round_trip():
    Z2, Z4 = cyclic(2), cyclic(4)
    cases = [
        FiniteCrossedModule(H=Z2, G=Z2, boundary=(0, 1), action=_trivial_action(Z2, Z2)),
        FiniteCrossedModule(H=Z2, G=Z2, boundary=(0, 0), action=_trivial_action(Z2, Z2)),
        FiniteCrossedModule(H=Z4, G=Z2, boundary=tuple(h % 2 for h in range(4)),
                            action=_trivial_action(Z2, Z4)),
        FiniteCrossedModule(
            H=Z4, G=Z4, boundary=tuple((2 * h) % 4 for h in range(4)),
            action=tuple(tuple(((-1) ** g * h) % 4 for h in range(4)) for g in range(4)),
        ),
    ]
    for x in cases:
        assert crossed_modules_equal(x, from_strict_2group(to_strict_2group(x)))
    _pass(10, "strict 2-group round trip is the identity on crossed modules")
