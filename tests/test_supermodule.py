import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from superalg.errors import DomainError, ShapeError
from superalg.spheres import make_sphere_projector, z6_ring
from superalg.suites import featured_rings, random_element, random_homogeneous
from superalg.supermodule import (
    FreeType,
    ModElement,
    SuperMorphism,
    end_projector,
    extend_basis_map,
    left_evaluate,
    lift_through_split_surjection,
    section_splitting,
    split_idempotent,
    tensor_basis,
    tensor_elements,
    tensor_morphisms,
)
from superalg.superring import grassmann_ring

seeds = st.integers(min_value=0, max_value=10_000)

RING = z6_ring()


def rand_morphism(rng, ring, source, target):
    return SuperMorphism(
        ring, source, target,
        [[random_element(rng, ring) for _ in range(source.size)] for _ in range(target.size)],
    )


def rand_vector(rng, ring, ftype):
    return ModElement(ring, ftype, [random_element(rng, ring) for _ in range(ftype.size)])


def test_free_type_basics():
    t = FreeType(2, 1)
    assert t.size == 3
    assert t.parities == (0, 0, 1)
    assert FreeType.from_json(t.to_json()) == t
    with pytest.raises(ShapeError):
        FreeType(-1, 0)


@settings(max_examples=50)
@given(seeds)
def test_right_linearity(seed):
    rng = random.Random(seed)
    source, target = FreeType(2, 1), FreeType(1, 2)
    phi = rand_morphism(rng, RING, source, target)
    x = rand_vector(rng, RING, source)
    a = random_element(rng, RING)
    assert phi.apply(x.right_mul(a)) == phi.apply(x).right_mul(a)


@settings(max_examples=50)
@given(seeds)
def test_composition_degree_additive(seed):
    rng = random.Random(seed)
    a, b, c = FreeType(1, 1), FreeType(2, 1), FreeType(1, 2)
    psi = rand_morphism(rng, RING, a, b).grade_split()[rng.randint(0, 1)]
    phi = rand_morphism(rng, RING, b, c).grade_split()[rng.randint(0, 1)]
    composed = phi.compose(psi)
    dphi, dpsi = phi.degree(), psi.degree()
    if dphi is None or dpsi is None or composed.is_zero():
        return
    assert composed.degree() == (dphi + dpsi) % 2


@settings(max_examples=50)
@given(seeds)
def test_grade_split_morphism(seed):
    rng = random.Random(seed)
    source, target = FreeType(2, 1), FreeType(1, 1)
    phi = rand_morphism(rng, RING, source, target)
    phi0, phi1 = phi.grade_split()
    assert phi0 + phi1 == phi
    for parity in (0, 1):
        coords = [random_homogeneous(rng, RING, (parity + bp) % 2) for bp in source.parities]
        x = ModElement(RING, source, coords)
        assert phi0.apply(x).homogeneous_part((parity + 1) % 2).is_zero()
        assert phi1.apply(x).homogeneous_part(parity).is_zero()


def test_grade_split_single_entry():
    ring = z6_ring()
    t = FreeType(1, 0)
    entry = ring.from_fraction(2) + ring.odd_gen("xi1")
    phi0, phi1 = SuperMorphism(ring, t, t, [[entry]]).grade_split()
    assert phi0.matrix[0][0] == ring.from_fraction(2)
    assert phi1.matrix[0][0] == ring.odd_gen("xi1")


@settings(max_examples=50)
@given(seeds)
def test_extend_basis_map(seed):
    rng = random.Random(seed)
    source, target = FreeType(2, 1), FreeType(1, 2)
    images = [rand_vector(rng, RING, target) for _ in range(source.size)]
    phi = extend_basis_map(RING, source, images)
    for k in range(source.size):
        assert phi.apply(ModElement.basis(RING, source, k)) == images[k]
    with pytest.raises(ShapeError):
        extend_basis_map(RING, source, images[:-1])
    with pytest.raises(ShapeError):
        extend_basis_map(RING, FreeType(0, 0), [])


def _flip_odd(c):
    """``c`` moved past an odd factor, written out: its odd part changes sign."""
    return c.homogeneous_part(0) - c.homogeneous_part(1)


def _entry_parity(x):
    """The parity of ``x`` read off its entries: 0 for zero, None if mixed."""
    found = {
        (part + bp) % 2
        for bp, c in zip(x.ftype.parities, x.coeffs)
        for part in (0, 1)
        if not c.homogeneous_part(part).is_zero()
    }
    return found.pop() if len(found) == 1 else (None if found else 0)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from([ring for _, ring in featured_rings()]))
def test_vectors_stay_vectors(seed, ring):
    """Every operation on vectors returns a ``ModElement`` whose entries follow the entrywise formulas."""
    rng = random.Random(seed)
    t, u = (FreeType(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(2))
    x, y = rand_vector(rng, ring, t), rand_vector(rng, ring, t)
    phi = rand_morphism(rng, ring, t, u)
    pa = rng.randint(0, 1)
    a = random_homogeneous(rng, ring, pa)
    xs, ys, par = x.coeffs, y.coeffs, t.parities
    expected = {
        "x + y": (x + y, [c + d for c, d in zip(xs, ys)]),
        "x - y": (x - y, [c - d for c, d in zip(xs, ys)]),
        "-x": (-x, [-c for c in xs]),
        "x_0": (x.homogeneous_part(0), [c.homogeneous_part(bp) for bp, c in zip(par, xs)]),
        "x_1": (x.homogeneous_part(1), [c.homogeneous_part(1 - bp) for bp, c in zip(par, xs)]),
        "phi(x)": (phi.apply(x), [ring.sum(e * c for e, c in zip(row, xs)) for row in phi.matrix]),
        "x a": (x.right_mul(a), [c * a for c in xs]),
        "a x": (x.left_mul(a), [
            (-1) ** (pa * bp) * ((_flip_odd(c) if pa else c) * a) for bp, c in zip(par, xs)
        ]),
        "x (x) y": (tensor_elements(x, y), [
            (_flip_odd(xs[i]) if par[j] else xs[i]) * ys[j] for i, j in tensor_basis(t, t)
        ]),
    }
    for label, (result, coeffs) in expected.items():
        assert type(result) is ModElement, label
        assert result.coeffs == tuple(coeffs), label
    for v in (x, x.homogeneous_part(0), x.homogeneous_part(1), x.left_mul(a)):
        assert v.parity() == _entry_parity(v)
    column = SuperMorphism(ring, FreeType(1, 0), t, [[c] for c in xs])
    assert x == column and column == x
    assert (x == y) == (xs == ys)


def test_left_action_four_term_oracle():
    # phi(a x) = (-1)^(|phi||a|) a phi(x), expanded over all four parity pairs
    ring = grassmann_ring(2)
    rng = random.Random(11)
    source = FreeType(1, 1)
    for dphi in (0, 1):
        for pa in (0, 1):
            phi = rand_morphism(rng, ring, source, source).grade_split()[dphi]
            if phi.degree() is None:
                continue
            a = random_homogeneous(rng, ring, pa)
            x = rand_vector(rng, ring, source)
            lhs = left_evaluate(phi, a, x)
            rhs = phi.apply(x).left_mul(a)
            if dphi * pa:
                rhs = ModElement(ring, source, [-c for c in rhs.coeffs])
            assert lhs == rhs


def test_left_mul_koszul_sign():
    ring = grassmann_ring(2)
    b1, b2 = ring.odd_gen_at(1), ring.odd_gen_at(2)
    t = FreeType(0, 1)  # one odd basis vector
    x = ModElement(ring, t, [ring.one()])  # odd element
    assert x.left_mul(b1) == x.right_mul(-b1)
    even = ModElement(ring, t, [b2])  # odd basis, odd coefficient: even element
    assert even.left_mul(b1) == even.right_mul(b1)


class TestSplitting:
    def test_split_idempotent_round_trip(self):
        g = make_sphere_projector(1).g
        split = split_idempotent(g)
        ident = SuperMorphism.identity(g.ring, g.source)
        assert split.iso_inv.compose(split.iso) == ident
        assert split.image_projector == g
        assert split.kernel_projector == ident - g
        assert split.image_projector.compose(split.kernel_projector) == SuperMorphism.zero(
            g.ring, g.source, g.source
        )

    def test_idempotence_residual(self):
        g = make_sphere_projector(1).g
        assert g.idempotence_residual() == []
        t = FreeType(1, 1)
        two = SuperMorphism.scalar(RING, t, RING.from_fraction(2))
        # 2*2 - 2 = 2 on both diagonal entries
        assert two.idempotence_residual() == [(0, 0, RING.from_fraction(2)), (1, 1, RING.from_fraction(2))]
        with pytest.raises(ShapeError):
            SuperMorphism.zero(RING, FreeType(1, 0), FreeType(2, 0)).idempotence_residual()

    def test_split_rejects_non_idempotent(self):
        t = FreeType(1, 0)
        two = SuperMorphism.scalar(RING, t, RING.from_fraction(2))
        with pytest.raises(DomainError):
            split_idempotent(two)

    def test_section_splitting(self):
        big, small = FreeType(2, 0), FreeType(1, 0)
        g = SuperMorphism(RING, big, small, [[RING.one(), RING.zero()]])
        s = SuperMorphism(RING, small, big, [[RING.one()], [RING.zero()]])
        phi, phi_inv = section_splitting(g, s)
        assert phi_inv.compose(phi) == SuperMorphism.identity(RING, big)

    def test_section_contract_enforced(self):
        big, small = FreeType(2, 0), FreeType(1, 0)
        g = SuperMorphism(RING, big, small, [[RING.one(), RING.zero()]])
        bad = SuperMorphism(RING, small, big, [[RING.zero()], [RING.one()]])
        with pytest.raises(DomainError):
            section_splitting(g, bad)

    def test_lift(self):
        big, small = FreeType(2, 0), FreeType(1, 0)
        g = SuperMorphism(RING, big, small, [[RING.one(), RING.zero()]])
        s = SuperMorphism(RING, small, big, [[RING.one()], [RING.zero()]])
        rng = random.Random(3)
        h = rand_morphism(rng, RING, FreeType(1, 1), small)
        lifted = lift_through_split_surjection(h, g, s)
        assert g.compose(lifted) == h


class TestTensor:
    def test_type_formulas(self):
        assert FreeType(1, 1).tensor(FreeType(1, 1)) == FreeType(2, 2)
        assert FreeType(2, 1).tensor(FreeType(1, 1)) == FreeType(3, 3)
        assert FreeType(2, 1).direct_sum(FreeType(1, 3)) == FreeType(3, 4)
        assert FreeType(2, 1).direct_sum(FreeType(0, 0)) == FreeType(2, 1)

    def test_tensor_basis_order(self):
        order = tensor_basis(FreeType(1, 1), FreeType(1, 1))
        assert order == [(0, 0), (1, 1), (0, 1), (1, 0)]

    def test_tensor_elements_koszul_sign(self):
        ring = grassmann_ring(2)
        b1 = ring.odd_gen_at(1)
        t = FreeType(1, 1)
        # x = f0 * b1 (odd coefficient on the even slot), y = f1 (odd basis vector)
        x = ModElement(ring, t, [b1, ring.zero()])
        y = ModElement(ring, t, [ring.zero(), ring.one()])
        prod = tensor_elements(x, y)
        basis = tensor_basis(t, t)
        slot = basis.index((0, 1))
        # moving the odd coefficient b1 past the odd basis vector f1 costs a sign
        assert prod.coeffs[slot] == -b1
        even_pair = tensor_elements(y, y)
        assert even_pair.coeffs[basis.index((1, 1))] == ring.one()

    @settings(max_examples=20)
    @given(seeds)
    def test_tensor_morphisms_koszul_law(self, seed):
        """``(phi (x) psi)(x (x) y) = (-1)**(|psi||x|) phi(x) (x) psi(y)`` in all 16 cases."""
        rng = random.Random(seed)
        e1, f1, e2, f2 = FreeType(1, 1), FreeType(2, 1), FreeType(1, 2), FreeType(1, 1)
        for ring in (RING, grassmann_ring(3)):
            for dphi, dpsi, px in itertools.product((0, 1), repeat=3):
                phi = rand_morphism(rng, ring, e1, f1).grade_split()[dphi]
                psi = rand_morphism(rng, ring, e2, f2).grade_split()[dpsi]
                x = ModElement(ring, e1, [random_homogeneous(rng, ring, (px + bp) % 2) for bp in e1.parities])
                y = rand_vector(rng, ring, e2)
                lhs = tensor_morphisms(phi, psi).apply(tensor_elements(x, y))
                rhs = tensor_elements(phi.apply(x), psi.apply(y))
                assert lhs == (-rhs if dpsi * px else rhs), (ring, dphi, dpsi, px)


def test_end_projector():
    g = make_sphere_projector(1).g
    E, units = end_projector(g)
    assert E.is_idempotent()
    assert units == tensor_basis(g.source, g.source)
    assert E.source == FreeType(4, 0)
    ident = SuperMorphism.identity(g.ring, g.source)
    E_id, _ = end_projector(ident)
    assert E_id == SuperMorphism.identity(g.ring, E_id.source)


def test_super_adjoint_is_involutive_on_projector():
    from superalg.landi import projector_p

    p = projector_p(1)
    assert p.super_adjoint().super_adjoint() == p


def test_morphism_json_round_trip():
    rng = random.Random(5)
    phi = rand_morphism(rng, RING, FreeType(2, 1), FreeType(1, 1))
    assert SuperMorphism.from_json(phi.to_json()) == phi
    g = make_sphere_projector(1).g
    assert SuperMorphism.from_json(g.to_json()) == g
