"""CLI fuzz: generated expressions and corrupted JSON documents end in exit 0, 1 or 2, with no traceback.

``eval`` gets token sequences over three rings, and powers whose exponents
run up to ``MAX_EXPONENT`` and ``*`` chains of them, over those rings and
``sphere_ring(3)``, which must end in 0 or 2; ``certify`` and ``eval
--ring`` get two morphisms and three ring descriptors with one or two
values (a leaf, a list or an object) replaced by a hostile value.  Each
call runs ``main`` in process with its output captured; an exception out of
``main`` (a traceback) or a call that runs past :data:`LIMIT_S` fails the
test.
"""

import contextlib
import io
import json
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from superalg.cli import main
from superalg.landi import make_uosp_ring, projector_p
from superalg.scalars import MAX_EXPONENT
from superalg.spheres import make_sphere_projector, sphere_ring
from superalg.superring import grassmann_ring

LIMIT_S = 10  # a runaway call is stopped here and fails the test
RINGS = {
    "grassmann-3": grassmann_ring(3),
    "sphere-1-odd": sphere_ring(1, odd_names=("t",)),
    "uosp": make_uosp_ring(),
}
CHAIN_RINGS = {**RINGS, "sphere-3": sphere_ring(3)}  # x0^32 has thousands of terms there: three of them took seconds to multiply
DOCUMENTS = {
    **{f"ring-{label}": ring.to_json() for label, ring in RINGS.items()},
    "projector-p1": projector_p(1).to_json(),
    "sphere-g1": make_sphere_projector(1).g.to_json(),
}
REPLACEMENTS = [0, 2.5, True, None, "", "1/0", "7" * 5000, 10**30, [], {}, 32768]


class Runaway(BaseException):
    """Raised in a call that runs past ``LIMIT_S``; ``main`` catches no ``BaseException``."""


@contextlib.contextmanager
def time_limit(seconds):
    if not hasattr(signal, "setitimer"):  # no interval timer on this platform: no limit
        yield
        return

    def stop(signum, frame):
        raise Runaway(f"the call ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv):
    """``main(argv)``'s exit code (argparse's ``SystemExit`` code counts) and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), time_limit(LIMIT_S):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean(argv):
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


# Each corrupted descriptor is a ring of its own: they fill a table of their own, and other tests keep theirs.
pytestmark = pytest.mark.usefixtures("fresh_ring_table")


@pytest.fixture(scope="module")
def ring_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("rings")
    files = {}
    for label, ring in CHAIN_RINGS.items():
        files[label] = folder / f"{label}.json"
        files[label].write_text(json.dumps(ring.to_json()))
    return files


def tokens(ring):
    names = st.sampled_from(ring.coeff.variables + ring.odd_names)
    numbers = st.integers(0, 12).map(str)
    operators = st.sampled_from(list("+-*^()/"))
    exponents = st.integers(0, 9).map(lambda e: f"^{e}")
    foreign = st.sampled_from(["@", "#", ".", "$", "é", "[", "\t", " ", "_", "i", "x9", "--"])
    return st.lists(st.one_of(*[names, numbers, operators, exponents] * 2, foreign), max_size=25)  # foreign: 1 in 9


@pytest.mark.parametrize("label", RINGS)
@settings(max_examples=150, deadline=5000, derandomize=True)
@given(data=st.data())
def test_eval_of_generated_text_exits_cleanly(ring_files, label, data):
    text = " ".join(data.draw(tokens(RINGS[label]), label="tokens"))
    assert_clean(["eval", text, "--ring", str(ring_files[label])])


def powers(ring):
    """A sum of one to three terms ``p/q*names`` raised to one or two exponents of at most ``MAX_EXPONENT``."""
    names = ring.coeff.variables + ring.odd_names
    term = st.builds(
        lambda p, q, factors: "*".join([f"{p}/{q}", *factors]),
        st.integers(-9, 9), st.integers(1, 9), st.lists(st.sampled_from(names), max_size=2),
    )
    exponents = st.lists(st.one_of(st.integers(0, 64), st.integers(0, MAX_EXPONENT)), min_size=1, max_size=2)
    return st.builds(lambda terms, exps: f"({' + '.join(terms)})" + "".join(f"^{e}" for e in exps),
                     st.lists(term, min_size=1, max_size=3), exponents)


@pytest.mark.parametrize("label", RINGS)
@settings(max_examples=100, deadline=5000, derandomize=True)
@given(data=st.data())
def test_a_power_up_to_the_largest_exponent_ends_in_time(ring_files, label, data):
    """A power prints its value or exits 2 within the deadline, by the digit limit or the product budget."""
    text = data.draw(powers(RINGS[label]), label="power")
    code, err = run_cli(["eval", text, "--ring", str(ring_files[label])])
    assert code in (0, 2) and "Traceback" not in err, (text, code, err)


@st.composite
def product_chains(draw):
    """A ring's label and two to four of its :func:`powers` joined by ``*``."""
    label = draw(st.sampled_from(sorted(CHAIN_RINGS)))
    return label, "*".join(draw(st.lists(powers(CHAIN_RINGS[label]), min_size=2, max_size=4)))


@settings(max_examples=100, deadline=5000, derandomize=True)
@given(case=product_chains())
@example(case=("sphere-3", "x0^32*x0^32*x0^32"))
@example(case=("sphere-3", "x0^40*x0^40*x0^40"))
def test_a_product_of_powers_ends_in_time(ring_files, case):
    """A ``*`` chain of powers prints its value or exits 2 within the deadline: the product budget is one total for
    the whole expression, so factors that each pass it do not add up to an unbounded product."""
    label, text = case
    code, err = run_cli(["eval", text, "--ring", str(ring_files[label])])
    assert code in (0, 2) and "Traceback" not in err, (text, code, err)


def node_paths(data, path=()):
    """The key paths of every value in a JSON document below its root: the leaves and the lists and objects."""
    children = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    return [sub for key, value in children for sub in [(*path, key), *node_paths(value, (*path, key))]]


def replaced(data, path, value):
    """``data`` with the value at ``path`` replaced, or unchanged if an earlier replacement removed ``path``."""
    if not path:
        return value
    if not isinstance(data, (dict, list)) or path[0] not in (data if isinstance(data, dict) else range(len(data))):
        return data
    data = dict(data) if isinstance(data, dict) else list(data)
    data[path[0]] = replaced(data[path[0]], path[1:], value)
    return data


NODES = {label: node_paths(document) for label, document in DOCUMENTS.items()}
EXPRESSIONS = {"grassmann-3": "b1*b2 + 1/2", "sphere-1-odd": "x0^2 + x1*t", "uosp": "a*ad + eta*etad"}


@settings(max_examples=300, deadline=5000, derandomize=True)
@given(data=st.data())
def test_corrupted_documents_exit_cleanly(tmp_path_factory, data):
    label = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="document")
    document = DOCUMENTS[label]
    for _ in range(data.draw(st.integers(1, 2), label="replacements")):
        path = data.draw(st.sampled_from(NODES[label]), label="path")
        document = replaced(document, path, data.draw(st.sampled_from(REPLACEMENTS), label="value"))
    path = tmp_path_factory.getbasetemp() / "corrupted.json"
    path.write_text(json.dumps(document))
    if label.startswith("ring-"):
        ring = label.removeprefix("ring-")
        assert_clean(["eval", EXPRESSIONS[ring], "--ring", str(path)])
    else:
        assert_clean(["certify", str(path)])
