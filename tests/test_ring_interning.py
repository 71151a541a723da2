"""One ring object per descriptor: the JSON readers and the ring factories share the rings they build.

Each ring descriptor is built and checked once per process, then looked up
(``superalg.scalars.interned``).  Malformed descriptors store nothing, so
they fail the same way every time, and arithmetic over a shared ring equals
arithmetic over a ring built anew.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import superalg.scalars as scalars
from superalg.cli import main
from superalg.errors import DomainError
from superalg.landi import make_uosp_ring, projector_p
from superalg.scalars import CoeffRing, IntegerModRing, PolyQuotientRing, RationalRing, coeff_ring_from_json
from superalg.spheres import make_sphere_projector, sphere_coeff_ring, sphere_ring, z6_ring
from superalg.suites import random_element
from superalg.superanalysis import trig_coeff_ring, trig_super_ring
from superalg.supermodule import SuperMorphism, split_idempotent
from superalg.superring import SuperRing, grassmann_ring

FACTORIES = [
    ("sphere_ring", lambda: sphere_ring(2)),
    ("sphere_ring-odd", lambda: sphere_ring(1, odd_names=("e1", "e2"))),
    ("make_uosp_ring", make_uosp_ring),
    ("grassmann_ring", lambda: grassmann_ring(4)),
    ("trig_super_ring", lambda: trig_super_ring(3)),
    ("z6_ring", z6_ring),
]
COEFF_FACTORIES = [
    ("sphere_coeff_ring", lambda: sphere_coeff_ring(3)),
    ("trig_coeff_ring", trig_coeff_ring),
    ("uosp-coefficients", lambda: make_uosp_ring().coeff),
]


pytestmark = pytest.mark.usefixtures("fresh_ring_table")  # each test starts from an empty table


def fresh(build):
    """``build()`` after the table is emptied, as a full one is, so that every ring it makes is new."""
    scalars._rings.clear()
    return build()


def round_trip(data):
    """``data`` written as JSON text and read back: a new dict, as a file gives it."""
    return json.loads(json.dumps(data))


@pytest.mark.parametrize("name, factory", FACTORIES, ids=[name for name, _ in FACTORIES])
def test_a_factory_ring_is_the_ring_of_its_descriptor(name, factory):
    ring = factory()
    assert factory() is ring
    assert SuperRing.from_json(round_trip(ring.to_json())) is ring
    assert SuperRing.from_json(round_trip(ring.to_json())) is SuperRing.from_json(round_trip(ring.to_json()))
    rebuilt = fresh(factory)
    assert rebuilt is not ring and rebuilt == ring


@pytest.mark.parametrize("name, factory", COEFF_FACTORIES, ids=[name for name, _ in COEFF_FACTORIES])
def test_a_factory_coefficient_ring_is_the_ring_of_its_descriptor(name, factory):
    ring = factory()
    assert factory() is ring
    assert coeff_ring_from_json(round_trip(ring.to_json())) is ring


def test_factory_arguments_are_normalized_and_typed():
    assert sphere_ring(2, odd_names=["e1", "e2"]) is sphere_ring(2, None, ("e1", "e2"))
    assert sphere_ring(2) is sphere_ring(2, RationalRing())  # two keys, one descriptor
    assert grassmann_ring(3) is not grassmann_ring(4)
    sphere_ring(1)
    with pytest.raises(TypeError):  # as before interning: 1.0 does not find the ring of 1
        sphere_ring(1.0)
    assert make_sphere_projector(2).ring is sphere_ring(2)


def test_one_sphere_projector_bundle_per_descriptor():
    bundle = make_sphere_projector(2)
    assert make_sphere_projector(2) is bundle
    over_q = make_sphere_projector(2, RationalRing())
    assert over_q is bundle  # two keys of one ring, one bundle
    assert make_sphere_projector(2, coeff_ring_from_json({"kind": "rational"})) is over_q  # equal descriptors
    assert make_sphere_projector(2, odd_names=["b1"]) is make_sphere_projector(2, None, ("b1",))
    others = [
        make_sphere_projector(1),
        make_sphere_projector(True),  # as for rings, the argument types are in the key
        make_sphere_projector(2, IntegerModRing(7)),
        make_sphere_projector(2, odd_names=("b1",)),
        make_sphere_projector(2, odd_names=("b2",)),
    ]
    assert len({id(b) for b in [bundle, *others]}) == 6
    for other in others:
        assert other.ring is sphere_ring(other.n, other.ring.coeff.base, other.ring.odd_names)
    assert others[2].ring is not bundle.ring and others[3].ring is not bundle.ring
    assert others[1].g == others[0].g


def test_a_shared_bundle_equals_a_new_one():
    bundle, new = make_sphere_projector(3), fresh(lambda: make_sphere_projector(3))
    assert new is not bundle and new.ring is not bundle.ring
    assert new.g.to_json() == bundle.g.to_json() and new.alpha.to_json() == bundle.alpha.to_json()


def test_a_sphere_projector_that_fails_stores_nothing(monkeypatch):
    for _ in range(2):
        with pytest.raises(DomainError, match="at least 1"):
            make_sphere_projector(0)
    assert scalars._rings == {}
    monkeypatch.setattr(SuperMorphism, "is_idempotent", lambda self: False)
    for _ in range(2):
        with pytest.raises(DomainError, match="idempotence"):
            make_sphere_projector(1)
    assert sphere_ring(1)._shared == {}  # the ring was built and kept; no bundle is kept on it


@pytest.mark.skipif(not scalars._digit_limit(), reason="no integer digit limit in this Python")
def test_a_sphere_projector_whose_key_does_not_hash_is_built_every_time():
    base = IntegerModRing(10 ** (scalars._digit_limit() + 1))  # its descriptor, so its hash, cannot be written
    first, second = make_sphere_projector(1, base), make_sphere_projector(1, base)
    assert first is not second and first.ring.coeff.base is base
    assert first.g.is_idempotent() and second.g.is_idempotent()


def test_morphisms_derived_from_a_shared_g_leave_it_unchanged():
    g = make_sphere_projector(1).g
    matrix, residual = g.matrix, g.idempotence_residual()
    doubled, negated = g + g, -g
    assert not doubled.is_idempotent() and not negated.is_idempotent()
    split = split_idempotent(g)
    assert split.round_trip_holds() and not split.kernel_projector.is_zero()
    assert make_sphere_projector(1).g is g
    assert g.matrix is matrix and g.idempotence_residual() == residual == []
    assert g.is_idempotent() and g == fresh(lambda: make_sphere_projector(1)).g


BASE = {
    "coeffs": {
        "kind": "poly_quotient",
        "vars": ["x", "y"],
        "relation": {"lead": "x", "rhs": "1 - y^2"},
        "base": {"kind": "rational"},
    },
    "odd_generators": ["e", "f"],
    "involution": {"odd_pairs": [["e", "f"]]},
}


def _variant(field):
    data = round_trip(BASE)
    coeffs = data["coeffs"]
    if field == "rhs":
        coeffs["relation"]["rhs"] = "2 - y^2"
    elif field == "lead":
        coeffs["relation"] = {"lead": "y", "rhs": "1 - x^2"}
    elif field == "base":
        coeffs["base"] = {"kind": "gaussian_rational"}
    elif field == "vars":
        coeffs["vars"] = ["y", "x"]
    elif field == "odd":
        data["odd_generators"] = ["e", "g"]
        data["involution"] = {"odd_pairs": [["e", "g"]]}
    elif field == "involution":
        data["involution"] = None
    return data


@pytest.mark.parametrize("field", ["rhs", "lead", "base", "vars", "odd", "involution"])
def test_descriptors_that_differ_in_one_field_give_distinct_rings(field):
    ring, other = SuperRing.from_json(round_trip(BASE)), SuperRing.from_json(_variant(field))
    assert other is not ring and other != ring
    assert other.to_json() != ring.to_json()
    assert (other.coeff is ring.coeff) == (field in ("odd", "involution"))
    if field not in ("odd", "involution"):
        assert other.coeff != ring.coeff
        assert coeff_ring_from_json(_variant(field)["coeffs"]) is other.coeff


def _radicand_text_descriptor():
    data = round_trip(make_uosp_ring().to_json())
    data["coeffs"]["relation"]["rhs"][0]["c"] = [{"rad": "abc", "re": "1", "im": "0"}]
    return data


DIGITS = "7" * 5000
MALFORMED = [
    ("duplicate-variables", {"coeffs": {"kind": "poly_quotient", "vars": ["x", "x"], "base": {"kind": "rational"}}}),
    ("odd-i-over-gaussian", {"coeffs": {"kind": "gaussian_rational"}, "odd_generators": ["i"]}),
    ("modulus-not-an-integer", {"coeffs": {"kind": "integer_mod", "n": "abc"}}),
    ("radicand-text", _radicand_text_descriptor()),
    ("digit-limit-coefficient", {"coeffs": {
        "kind": "poly_quotient", "vars": ["x", "y"], "base": {"kind": "rational"},
        "relation": {"lead": "x", "rhs": [{"exps": {"y": 1}, "c": DIGITS}]},
    }}),
]


@pytest.mark.parametrize("name, data", MALFORMED, ids=[name for name, _ in MALFORMED])
def test_a_malformed_descriptor_raises_on_every_call(name, data):
    if name == "digit-limit-coefficient" and not scalars._digit_limit():
        pytest.skip("no integer digit limit in this Python")
    messages = []
    for _ in range(2):
        with pytest.raises(DomainError) as caught:
            SuperRing.from_json(round_trip(data))
        messages.append(str(caught.value))
        if name != "odd-i-over-gaussian":  # the one fault outside the coefficient ring
            with pytest.raises(DomainError):
                coeff_ring_from_json(round_trip(data["coeffs"]))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name, data", MALFORMED, ids=[name for name, _ in MALFORMED])
def test_the_cli_exits_two_on_a_malformed_descriptor_every_time(capsys, tmp_path, name, data):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    results = []
    for _ in range(2):
        code = main(["eval", "1", "--ring", str(path)])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][:2] == (2, "") and results[0][2].startswith("error: ")


def test_a_radicand_text_in_a_morphism_exits_two_every_time(capsys, tmp_path):
    data = projector_p(1).to_json()
    data["matrix"][0][0][0]["coeff"] = [{"rad": "abc", "re": "1", "im": "0"}]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    results = []
    for _ in range(2):
        results.append((main(["certify", str(path)]), *capsys.readouterr()))
    assert results[0] == results[1] and results[0][0] == 2
    assert "radicand 'abc' is not an integer" in results[0][2]


def test_a_descriptor_that_is_not_json_is_built_every_time():
    listed = {"coeffs": {"kind": "rational"}, "odd_generators": ["e", "f"], "involution": {"odd_pairs": [["e", "f"]]}}
    ring = SuperRing.from_json(listed)
    tupled = {**listed, "odd_generators": ("e", "f")}  # json_names takes a tuple, so this one builds
    assert SuperRing.from_json(tupled) == ring and SuperRing.from_json(tupled) is not ring
    with pytest.raises(DomainError, match="list of name pairs"):  # a tuple is no JSON list, however it prints
        SuperRing.from_json({**listed, "involution": {"odd_pairs": (("e", "f"),)}})
    assert scalars.json_key(SuperRing, {**listed, "odd_generators": ("e", "f")}) is None
    assert scalars.json_key(SuperRing, {1: "a"}) is None
    cyclic = []
    cyclic.append(cyclic)
    assert scalars.json_key(SuperRing, cyclic) is None


@pytest.mark.skipif(not scalars._digit_limit(), reason="no integer digit limit in this Python")
def test_a_ring_whose_descriptor_cannot_be_written_still_builds(capsys, tmp_path):
    """Its identity text would hold an integer past the digit limit: it is built and used, never keyed by descriptor."""
    huge = 10 ** (scalars._digit_limit() + 1)
    ring = SuperRing.from_json({"coeffs": {"kind": "integer_mod", "n": huge}, "odd_generators": ["e"]})
    assert ring.coeff.n == huge and grassmann_ring(1, ring.coeff).odd_count == 1
    path = tmp_path / "ring.json"
    rhs = "7^6000 - y^2"  # a coefficient of 5,071 digits
    path.write_text(json.dumps({"coeffs": {**BASE["coeffs"], "relation": {"lead": "x", "rhs": rhs}}}))
    for _ in range(2):
        assert main(["eval", "y", "--ring", str(path)]) == 0
        assert capsys.readouterr().out == "y\n"


def test_the_table_keeps_at_most_its_limit(monkeypatch):
    monkeypatch.setattr(scalars, "INTERN_LIMIT", 8)
    rings = [sphere_ring(1, odd_names=(f"e{i}",)) for i in range(20)]
    assert len(scalars._rings) <= 8
    assert sphere_ring(1, odd_names=("e0",)) == rings[0]
    assert sphere_ring(1, odd_names=("e19",)) is rings[19]


def _modulus(n):
    return {"kind": "integer_mod", "n": n}


def _two_reads(n):
    """A ring over ``Z/n`` whose build reads a second descriptor after the first is stored, as a nested build may."""

    def build():
        coeff = coeff_ring_from_json(_modulus(n))
        coeff_ring_from_json(_modulus(n + 1))
        return SuperRing(coeff, ("e",))

    return scalars.interned(("two-reads", n), build)


def _assert_consistent():
    """The table holds rings only, one object per descriptor, and a stored ring's stored coefficient ring is its own."""
    table = scalars._rings
    for ring in table.values():
        assert isinstance(ring, (CoeffRing, SuperRing))
        assert table.get(ring._identity()) is ring
        if isinstance(ring, SuperRing):
            assert table.get(ring.coeff._identity(), ring.coeff) is ring.coeff


def test_a_flood_of_descriptors_leaves_the_table_consistent():
    """Past ``INTERN_LIMIT`` the table empties whole, never inside a build, so no key outlives its ring or parts."""
    uosp, uosp_coeffs = round_trip(make_uosp_ring().to_json()), round_trip(make_uosp_ring().coeff.to_json())
    between = [
        make_uosp_ring,
        lambda: sphere_ring(2),
        lambda: SuperRing.from_json(uosp),
        lambda: coeff_ring_from_json(uosp_coeffs),
        lambda: trig_super_ring(2),
    ]
    emptied = 0
    for step in range(3 * scalars.INTERN_LIMIT):
        size = len(scalars._rings)
        coeff_ring_from_json(_modulus(1000 + step))
        if step % 3 == 0:
            between[step // 3 % len(between)]()
        ring = _two_reads(10**6 + 2 * step)
        assert coeff_ring_from_json(_modulus(10**6 + 2 * step)) is ring.coeff
        emptied += len(scalars._rings) < size
        _assert_consistent()
        assert make_uosp_ring() is make_uosp_ring()
        assert trig_super_ring(2).coeff is trig_coeff_ring()
    assert emptied >= 3
    assert make_uosp_ring().coeff is coeff_ring_from_json(uosp_coeffs)


def test_a_ring_built_over_a_given_coefficient_ring_stores_it_too():
    """The table empties as ``grassmann_ring`` misses, after its coefficient ring was looked up: the two stay one."""
    trig = trig_coeff_ring()
    step = 0
    while len(scalars._rings) < scalars.INTERN_LIMIT:
        coeff_ring_from_json(_modulus(2 + step))
        step += 1
    ring = trig_super_ring(2)
    assert ring.coeff is trig and trig_coeff_ring() is trig and trig_super_ring(2) is ring
    assert len(scalars._rings) < scalars.INTERN_LIMIT  # the miss emptied the table


def _count_constructions(monkeypatch, cls, counts):
    original = cls.__init__

    def counting(self, *args, **kwargs):
        counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)


def test_repeated_certify_runs_build_the_ring_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(make_sphere_projector(1).g.to_json()))
    counts = {}
    for cls in (PolyQuotientRing, SuperRing):
        _count_constructions(monkeypatch, cls, counts)
    for _ in range(20):
        assert main(["certify", str(path)]) == 0
    capsys.readouterr()
    # The plain ring that reads the relation's right-hand side and the quotient ring, on the first run at most.
    assert counts.get("PolyQuotientRing", 0) <= 2
    assert counts.get("SuperRing", 0) <= 1


def _from_recipe(ring, seed):
    return [random_element(random.Random(seed + i), ring) for i in range(3)]


@pytest.mark.parametrize("name, factory", FACTORIES, ids=[name for name, _ in FACTORIES])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_arithmetic_over_an_interned_ring_equals_a_fresh_one(name, factory, seed):
    shared, new = factory(), fresh(factory)
    assert new is not shared
    x, y, z = _from_recipe(shared, seed)
    u, v, w = _from_recipe(new, seed)
    assert [a.terms for a in (x, y, z)] == [a.terms for a in (u, v, w)]
    assert (x * y).terms == (u * v).terms
    assert (x * x).terms == (u * u).terms
    assert (x + y - z).terms == (u + v - w).terms
    assert shared.sum_of_products([(x, y), (y, z)]).terms == new.sum_of_products([(u, v), (v, w)]).terms
    assert (x * y).to_json() == (u * v).to_json()
    assert (3 * x).terms == (u * Fraction(3)).terms == x.scale(3).terms


def test_rational_values_pass_through_unchanged():
    q = RationalRing()
    half = Fraction(1, 2)
    assert q.from_fraction(half) is half
    assert type(q.from_fraction(7)) is int and type(q.from_fraction(Fraction(4, 2))) is int
    for value in (True, "3/6", 0.5, -2.0):  # any other input is read by Fraction, as before
        assert q.from_fraction(value) == Fraction(value)
    assert type(q.from_fraction(-2.0)) is int and type(q.from_fraction(True)) is int
    for _, factory in FACTORIES:
        ring = factory()
        for value in (3, Fraction(2, 5), "1/5", True):  # 5 is invertible mod 6
            assert ring.from_fraction(value) == ring.element({0: ring.coeff.from_fraction(Fraction(value))})
    x = z6_ring().odd_gen("xi1") + z6_ring().one()
    assert (x * 2 * 3).is_zero() and (Fraction(3) * x).terms == {0: 3, 1: 3}
