"""``eval``'s product rule: each product is read as it is formed, whatever the kind of its coefficients.

``superring.power`` forms ``x^e`` by left-to-right square-and-multiply, and
every product of an expression, each ``*`` and each step of a ``^``, goes
through ``_Parser.product``: both factors must print, and the products of
their printed lengths are summed over the expression and refused past
``PRODUCT_BUDGET``.  ``x`` and the finished power must print too.  The
boundary test lowers Python's digit limit to 640, its least, so that powers
reach it after a few hundred steps, and checks that ``eval`` refuses a power
exactly when the API's value cannot print.
"""

import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from superalg.cli import main
from superalg.errors import DomainError
from superalg.expressions import parse_element
from superalg.landi import make_uosp_ring
from superalg.scalars import _digit_limit, coeff_ring_from_json
from superalg.spheres import sphere_ring
from superalg.superring import SuperRing, grassmann_ring

LOW_LIMIT = 640  # the least digit limit Python takes
DIGIT_ERROR = "a coefficient has more than {} digits, the most Python converts to or from text"
pytestmark = pytest.mark.usefixtures("fresh_ring_table")  # the descriptors eval reads fill a table of their own


def _one_variable(rhs, base="rational"):
    """``base[w] / (w^2 - rhs)``: a value has at most two terms, so no power that prints nears the budget."""
    data = {"kind": "poly_quotient", "vars": ["w"], "relation": {"lead": "w", "rhs": rhs}, "base": {"kind": base}}
    return SuperRing(coeff_ring_from_json(data))


RINGS = {
    "rational": grassmann_ring(1),
    "gaussian": SuperRing(coeff_ring_from_json({"kind": "gaussian_rational"})),
    "uosp": make_uosp_ring(),
    "w2=-1": _one_variable("-1"),
    "w2=2": _one_variable("2"),
    "w2=-3/4": _one_variable("-3/4", "gaussian_rational"),
}


@pytest.fixture(scope="module")
def ring_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("power-rings")
    files = {}
    for i, (label, ring) in enumerate(RINGS.items()):
        files[label] = folder / f"ring-{i}.json"
        files[label].write_text(json.dumps(ring.to_json()))
    return files


@pytest.fixture
def low_digit_limit():
    """Python's digit limit at :data:`LOW_LIMIT` for the test, and back to what it was after."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LOW_LIMIT)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def prints(element):
    try:
        return element.to_text()
    except DomainError:
        return None


BIG = st.integers(-(10**12), 10**12)
DENOMINATOR = st.integers(1, 10**12)
SMALL_FRACTION = st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**4), 10**4), DENOMINATOR)


def _two_terms(unit):
    return st.builds(lambda a, b: f"{a} + {b}*{unit}", SMALL_FRACTION, SMALL_FRACTION)


BODIES = st.one_of(
    st.tuples(st.just("rational"), BIG.map(str)),
    st.tuples(st.just("rational"), st.builds(lambda p, q: f"{p}/{q}", BIG, DENOMINATOR)),
    st.tuples(st.just("gaussian"), _two_terms("i")),
    # (1 + (2^k - 1) i) / 2^k: up to 2^(e/2) cancels from the e-th power's denominator
    st.tuples(st.just("gaussian"), st.integers(1, 12).map(lambda k: f"1/{2**k} + {2**k - 1}/{2**k}*i")),
    st.tuples(st.just("uosp"), st.builds(
        lambda c, names: "*".join([c, *names]),
        SMALL_FRACTION,
        st.lists(st.sampled_from(["a", "ad", "b", "bd"]), max_size=3),
    )),
    st.tuples(st.just("uosp"), _two_terms("i")),
    st.tuples(st.sampled_from(["w2=-1", "w2=2", "w2=-3/4"]), _two_terms("w")),
)
SCAN = 2500  # the most powers of one body the API forms: most bodies that are not units pass the limit by then


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit in this Python")
@settings(max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=BODIES, data=st.data())
def test_eval_refuses_a_power_exactly_when_its_value_cannot_print(low_digit_limit, ring_files, body, data):
    """The API forms ``x^0 .. x^SCAN`` one product at a time; ``eval`` of ``(x)^e`` prints the same text, or
    exits 2 where that text cannot be written: at the first power that cannot print, the one before it and a
    drawn exponent up to 64 past the first."""
    label, text = body
    ring = RINGS[label]
    x = parse_element(text, ring)  # no power in the text: formed by the API's sums and products
    texts, power, first = [], ring.one(), None
    for e in range(SCAN + 1):
        texts.append(prints(power))
        if first is None and texts[-1] is None:
            first = e
        if first is not None and e == first + 64:
            break
        power = power * x
    first = len(texts) - 1 if first is None else first
    exponents = {max(first - 1, 0), first, data.draw(st.integers(0, len(texts) - 1), label="exponent")}
    for e in sorted(exponents):
        assert prints(x**e) == texts[e]
        code, out, err = run(["eval", f"({text})^{e}", "--ring", str(ring_files[label])])
        if texts[e] is None:
            assert (code, out, err) == (2, "", f"error: {DIGIT_ERROR.format(LOW_LIMIT)}\n"), e
        else:
            assert (code, out, err) == (0, texts[e] + "\n", ""), e


@pytest.mark.parametrize("text, ring", [
    ("x0^120", lambda: sphere_ring(3)),
    ("(71/227 + a)^927^32767", make_uosp_ring),
    ("x0^32*x0^32*x0^32", lambda: sphere_ring(3)),
    ("x0^40*x0^40*x0^40", lambda: sphere_ring(3)),
    (" + ".join(["x0^24*x0^24"] * 5), lambda: sphere_ring(3)),
], ids=["sphere", "uosp", "chain-32", "chain-40", "sum-of-five"])
def test_a_power_past_the_product_budget_exits_two_at_once(capsys, tmp_path, text, ring):
    """``x0^120`` over ``sphere_ring(3)`` has 39,711 terms and would take tens of seconds to form, the uosp
    power far longer, the chains of three ``x0^32`` or ``x0^40`` 7.5 and 15.9 s and the sum of five about a
    second: each stops at the product that takes the expression's total of printed lengths past the budget.
    The budget is one total per expression: each factor of a chain, and each ``x0^24*x0^24``, is under it."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring().to_json()))
    start = time.perf_counter()
    code = main(["eval", text, "--ring", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: the expression's products would multiply ") and err.endswith(", past 200000000\n")
    assert time.perf_counter() - start < 1


def test_one_product_under_the_budget_is_read():
    """``x0^48`` and ``x0^24*x0^24`` over ``sphere_ring(3)`` (about 9×10⁷ each) are read as the API forms them."""
    ring = sphere_ring(3)
    assert parse_element("x0^24*x0^24", ring) == parse_element("x0^48", ring) == ring.even_gen("x0") ** 48


@pytest.mark.skipif(not _digit_limit(), reason="no integer digit limit in this Python")
def test_a_partial_power_that_cannot_print_is_refused_though_the_finished_power_prints():
    """``x = N*b1*b2 + N*b3*b4`` with ``N = (71/227)^927`` (2,185 digits) has ``x^3 = 0``, but the partial
    power ``x^2 = 2*N^2*b1*b2*b3*b4`` has a denominator of 4,369 digits: each power is read as it is formed,
    and so is each factor of ``x*x*x``."""
    ring = grassmann_ring(4)
    n = "(71/227)^927"
    with pytest.raises(DomainError, match="a coefficient has more than"):
        parse_element(f"({n}*b1*b2 + {n}*b3*b4)^3", ring)
    with pytest.raises(DomainError, match="a coefficient has more than"):
        parse_element(f"({n}*b1*b2 + {n}*b3*b4)*({n}*b1*b2 + {n}*b3*b4)*({n}*b1*b2 + {n}*b3*b4)", ring)


@pytest.mark.skipif(not _digit_limit(), reason="no integer digit limit in this Python")
@pytest.mark.parametrize("exp", [0, 1])
def test_a_base_that_cannot_print_is_refused_at_every_exponent(exp):
    """``b1*b2``'s coefficient has 4,713 digits: no power of it is formed, not even its 0th or 1st."""
    ring = grassmann_ring(3)
    base = "b1*b2*(71/227)^1000*(71/227)^1000"
    with pytest.raises(DomainError, match="a coefficient has more than"):
        parse_element(f"({base})^{exp}", ring)


@pytest.mark.skipif(not 0 < _digit_limit() < 6000, reason="7^6000 prints under this Python's digit limit")
def test_a_power_of_a_one_digit_base_that_cannot_print_is_refused_wherever_text_is_read(capsys, tmp_path):
    """``7^6000`` has 5,071 digits: ``eval`` and a relation's right-hand side refuse it, a product does not."""
    assert parse_element("7^3000*7^3000", grassmann_ring(1)).terms[0] == 7**6000
    with pytest.raises(DomainError, match="a coefficient has more than"):
        parse_element("7^6000", grassmann_ring(1))
    path = tmp_path / "ring.json"
    quotient = {"kind": "poly_quotient", "vars": ["x", "y"], "base": {"kind": "rational"}}
    path.write_text(json.dumps({"coeffs": {**quotient, "relation": {"lead": "x", "rhs": "7^6000 - y^2"}}}))
    assert main(["eval", "y", "--ring", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {DIGIT_ERROR.format(_digit_limit())}\n"
