"""Idempotence is decided once per morphism: ``g∘g`` is composed once, and
every later question about the same object reuses that answer."""

import json

import pytest
from hypothesis import given, strategies as st

from superalg import cli
from superalg.spheres import make_sphere_projector, stably_free_certificate, z6_ring
from superalg.supermodule import FreeType, SuperMorphism, split_idempotent

Z6 = z6_ring()


@pytest.fixture
def self_composes(monkeypatch):
    """The morphisms ``m`` of every ``SuperMorphism.compose(m, m)`` call."""
    calls = []
    original = SuperMorphism.compose

    def counting(self, other):
        if self is other:
            calls.append(self)
        return original(self, other)

    monkeypatch.setattr(SuperMorphism, "compose", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_sphere_certificate_composes_g_once(self_composes, fresh_ring_table, n):  # so the bundle is built here
    report = stably_free_certificate(make_sphere_projector(n))
    assert report.passed
    assert len(self_composes) == 1  # the construction check; the certificate reuses its residual


@pytest.mark.parametrize("n", [1, 2])
def test_a_shared_bundle_composes_nothing_again(self_composes, n):
    bundle = make_sphere_projector(n, odd_names=("c1",))
    self_composes.clear()
    assert make_sphere_projector(n, odd_names=["c1"]) is bundle
    assert stably_free_certificate(bundle).passed
    assert self_composes == []


def test_certify_composes_g_once(self_composes, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(make_sphere_projector(2).g.to_json()))
    self_composes.clear()
    assert cli.main(["certify", str(path)]) == 0
    assert "[PASS] split-round-trip" in capsys.readouterr().out
    assert len(self_composes) == 1


def test_split_after_check_composes_nothing(self_composes):
    g = make_sphere_projector(1).g
    assert g.is_idempotent()
    self_composes.clear()
    split_idempotent(g)
    assert self_composes == []


def test_residual_list_is_a_copy():
    two = SuperMorphism.scalar(Z6, FreeType(1, 1), Z6.from_fraction(2))
    first = two.idempotence_residual()
    first.clear()
    assert len(two.idempotence_residual()) == 2
    assert not two.is_idempotent()


z6_elements = st.dictionaries(st.sampled_from([0b00, 0b01, 0b10, 0b11]), st.integers(0, 5)).map(Z6.element)
# Diagonal entries that are idempotents of Z6, so that idempotent matrices are drawn too.
z6_idempotents = st.sampled_from([0, 1, 3, 4]).map(Z6.from_fraction)


@st.composite
def square_morphisms(draw):
    ftype = FreeType(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    n = ftype.size
    if draw(st.booleans()):
        rows = [[draw(z6_elements) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[draw(z6_idempotents) if i == j else Z6.zero() for j in range(n)] for i in range(n)]
    return SuperMorphism(Z6, ftype, ftype, rows)


@given(square_morphisms(), st.booleans())
def test_is_idempotent_agrees_with_residual(g, residual_first):
    expected = g.compose(g) == g
    if residual_first:
        residual = g.idempotence_residual()
        idempotent = g.is_idempotent()
    else:
        idempotent = g.is_idempotent()
        residual = g.idempotence_residual()
    assert idempotent == (not residual) == expected
