import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import superalg
from superalg.cli import main
from superalg.landi import make_uosp_ring, projector_p
from superalg.scalars import MAX_EXPONENT, GaussianRationalRing
from superalg.spheres import make_sphere_projector
from superalg.supermodule import FreeType, SuperMorphism
from superalg.superring import grassmann_ring
from superalg.spheres import z6_ring


@pytest.fixture
def grassmann_ring_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(grassmann_ring(2).to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "z6")
    assert code == 0
    assert "result: PASS" in out
    assert "[PASS] image-cardinality" in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "example-2-6", "--L", "6", "--max-n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["params"] == {"L": 6, "max_n": 3}
    assert any(c["name"] == "n=3" and "= 6" in c["witness"] for c in data["clauses"])


def test_verify_flags_reach_suites(capsys):
    code, out, _ = run(capsys, "verify", "landi", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["n"] == 2


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_determinism_modulo_timing(capsys):
    reports = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "nilpotency", "--seed", "42", "--format", "json")
        assert code == 0
        data = json.loads(out)
        data.pop("wall_time", None)
        for clause in data["clauses"]:
            clause.pop("seconds", None)
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_eval_normalizes(capsys, grassmann_ring_file):
    code, out, _ = run(capsys, "eval", "(1+b1)*(1-b1)", "--ring", grassmann_ring_file)
    assert code == 0
    assert out.strip() == "1"


def test_eval_parse_error_exit_two(capsys, grassmann_ring_file):
    code, _, err = run(capsys, "eval", "(1+b1", "--ring", grassmann_ring_file)
    assert code == 2
    assert "parse error" in err


def test_eval_unknown_generator_exit_two(capsys, grassmann_ring_file):
    code, _, err = run(capsys, "eval", "b7", "--ring", grassmann_ring_file)
    assert code == 2


def test_eval_missing_ring_file(capsys):
    code, _, err = run(capsys, "eval", "1", "--ring", "/nonexistent.json")
    assert code == 2


def test_certify_round_trip(capsys, tmp_path):
    g = make_sphere_projector(1).g
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    code, out, _ = run(capsys, "certify", str(path))
    assert code == 0
    assert "residual g^2 - g: 0" in out
    assert "split-round-trip" in out


def test_certify_negative_case_lists_residual(capsys, tmp_path):
    ring = z6_ring()
    t = FreeType(1, 0)
    bad = SuperMorphism.scalar(ring, t, ring.from_fraction(2))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, _ = run(capsys, "certify", str(path))
    assert code == 1
    assert "[FAIL] idempotent" in out
    assert "[0][0] = 2" in out


def test_certify_non_square_is_usage_error(capsys, tmp_path):
    ring = z6_ring()
    rect = SuperMorphism.zero(ring, FreeType(2, 0), FreeType(1, 0))
    path = tmp_path / "rect.json"
    path.write_text(json.dumps(rect.to_json()))
    code, _, err = run(capsys, "certify", str(path))
    assert code == 2
    assert "square" in err


def test_no_color_env_strips_ansi(capsys, monkeypatch, grassmann_ring_file):
    monkeypatch.setenv("NO_COLOR", "1")
    _, out, _ = run(capsys, "verify", "z6")
    assert "\x1b[" not in out


@pytest.mark.parametrize(
    "descriptor",
    [
        {"coeffs": {"kind": "rational"}, "odd_generators": 5},
        {"coeffs": {"kind": "rational"}, "odd_generators": ["b1", 2]},
        [{"coeffs": {"kind": "rational"}}],
        {"coeffs": {"kind": "octonion"}},
        {"coeffs": [{"kind": "rational"}]},
        {"coeffs": {"kind": "poly_quotient", "vars": 5, "base": {"kind": "rational"}}},
        {"coeffs": {"kind": "poly_quotient", "vars": ["x"], "base": "rational"}},
        {"coeffs": {"kind": "integer_mod", "n": [6]}},
        {"coeffs": {"kind": "rational"}, "odd_generators": ["b1"], "involution": [["b1", "b1"]]},
    ],
)
def test_eval_malformed_ring_descriptor_exit_two(capsys, tmp_path, descriptor):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(descriptor))
    code, out, err = run(capsys, "eval", "1", "--ring", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _quotient_descriptor(rhs):
    coeffs = {"kind": "poly_quotient", "vars": ["x0", "x1"], "base": {"kind": "rational"}}
    return {"coeffs": {**coeffs, "relation": {"lead": "x0", "rhs": rhs}}}


@pytest.mark.parametrize(
    "rhs, message",
    [
        (5, "list of terms"),
        ([5], "JSON object"),
        ([{"exps": 5, "c": "1"}], "'exps'"),
        ([{"c": "1"}], "'exps'"),
        ([{"exps": {"x1": -2}, "c": "1"}], "exponent of x1"),
        ([{"exps": {"x1": 2.5}, "c": "1"}], "exponent of x1"),
        ([{"exps": {"zz": 1}, "c": "1"}], "'zz' is not a variable"),
        ([{"exps": {"x1": 2}}], "coefficient 'c'"),
    ],
)
def test_eval_malformed_relation_rhs_exit_two(capsys, tmp_path, rhs, message):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(_quotient_descriptor(rhs)))
    code, out, err = run(capsys, "eval", "x0^2", "--ring", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_eval_relation_rhs_terms_match_text_form(capsys, tmp_path):
    term = {"exps": {"x1": 2}, "c": "1"}
    outputs = []
    for rhs in ([term, term], "2*x1^2"):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(_quotient_descriptor(rhs)))
        code, out, _ = run(capsys, "eval", "x0^2", "--ring", str(path))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == "2*x1^2\n"


UOSP_COEFFS = {
    "kind": "poly_quotient",
    "vars": ["a", "ad", "b", "bd"],
    "base": {"kind": "rational"},
    "relation": {"lead": "a*ad", "rhs": "1 - b*bd"},
}


def _constant_rhs_descriptor(base_kind, c):
    coeffs = {"kind": "poly_quotient", "vars": ["x0"], "base": {"kind": base_kind}}
    return {"coeffs": {**coeffs, "relation": {"lead": "x0", "rhs": [{"exps": {}, "c": c}]}}}


@pytest.mark.parametrize(
    "expression, descriptor, message",
    [
        (
            "b2*b3",
            {
                "coeffs": {"kind": "rational"},
                "odd_generators": ["b1", "b2", "b3"],
                "involution": {"odd_pairs": [["b1", "b2"], ["b1", "b3"]]},
            },
            "'b1' is paired twice",
        ),
        (
            "a",
            {"coeffs": UOSP_COEFFS, "involution": {"even_pairs": [["a", "ad"], ["a", "b"]]}},
            "'a' is paired twice",
        ),
        ("a", {"coeffs": UOSP_COEFFS, "involution": {"even_pairs": [["a", "b"]]}}, "does not preserve"),
        (
            "b3",
            {
                "coeffs": {"kind": "rational"},
                "odd_generators": ["b1", "b2", "b3"],
                "involution": {"odd_pairs": [["b1", "b2"]]},
            },
            "involution table leaves odd generator 'b3' unpaired",
        ),
        ("x0", {"coeffs": {**_quotient_descriptor("1")["coeffs"], "relation": {"lead": "x0"}}}, "has no 'rhs'"),
        ("x0", _constant_rhs_descriptor("gaussian_rational", {"re": "1"}), "a Gaussian value has no 'im'"),
        ("x0", _constant_rhs_descriptor("gaussian_radical", [{"re": "1", "im": "0"}]), "a radical term has no 'rad'"),
        ("x0", _constant_rhs_descriptor("gaussian_radical", [{"rad": 2, "im": "0"}]), "a radical term has no 're'"),
        (
            "x*x",
            {"coeffs": {"kind": "poly_quotient", "vars": ["x", "x"], "base": {"kind": "rational"}}},
            "ring variables must be distinct",
        ),
        (
            "x*x",
            {"coeffs": {"kind": "poly_quotient", "vars": ["x"], "base": {"kind": "rational"}}, "odd_generators": ["x"]},
            "generator 'x' is both odd and even",
        ),
        ("x0", _constant_rhs_descriptor("rational", "1/0"), "coefficient '1/0' is not a rational number"),
        (
            "i*i",
            {"coeffs": {"kind": "gaussian_rational"}, "odd_generators": ["i"]},
            "odd generator 'i' would read as the imaginary unit",
        ),
        (
            "i*i",
            {"coeffs": {"kind": "poly_quotient", "vars": ["i"], "base": {"kind": "gaussian_rational"}}},
            "ring variable 'i' would read as the imaginary unit",
        ),
        ("1", {"coeffs": {"kind": "integer_mod", "n": "abc"}}, "modulus 'n' must be an integer, not 'abc'"),
        (
            "1",
            {"coeffs": {"kind": "poly_quotient", "vars": ["x y"], "base": {"kind": "rational"}}},
            "'vars': 'x y' is not a name",
        ),
        (
            "1",
            {"coeffs": {"kind": "poly_quotient", "vars": ["1"], "base": {"kind": "rational"}}},
            "'vars': '1' is not a name",
        ),
        ("1", {"coeffs": {"kind": "rational"}, "odd_generators": [""]}, "'odd_generators': '' is not a name"),
    ],
    ids=[
        "odd-paired-twice", "even-paired-twice", "relation-not-preserved", "odd-unpaired",
        "relation-without-rhs", "gaussian-without-im", "radical-without-rad", "radical-without-re",
        "duplicate-variables", "odd-and-even-name", "zero-denominator", "odd-i-over-gaussian",
        "variable-i-over-gaussian", "modulus-not-an-integer", "variable-with-space", "variable-a-number",
        "empty-generator-name",
    ],
)
def test_eval_rejected_ring_descriptor_names_the_problem(capsys, tmp_path, expression, descriptor, message):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(descriptor))
    code, out, err = run(capsys, "eval", expression, "--ring", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_certify_malformed_ring_exit_two(capsys, tmp_path):
    data = make_sphere_projector(1).g.to_json()
    data["ring"]["odd_generators"] = 5
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "certify", str(path))
    assert code == 2
    assert "odd_generators" in err and "Traceback" not in err


def _with_term(key, value):
    def mutate(data):
        data["matrix"][0][0][0][key] = value
        return data

    return mutate


MALFORMED_MORPHISMS = {
    "top-level-list": lambda data: [data],
    "matrix-number": lambda data: {**data, "matrix": 5},
    "row-number": lambda data: {**data, "matrix": [5, data["matrix"][1]]},
    "entry-number": lambda data: {**data, "matrix": [[7, data["matrix"][0][1]], data["matrix"][1]]},
    "term-number": lambda data: {**data, "matrix": [[[7], data["matrix"][0][1]], data["matrix"][1]]},
    "source-number": lambda data: {**data, "source": 3},
    "source-rank-list": lambda data: {**data, "source": {"p": [2], "q": 0}},
    "odd-number": _with_term("odd", 5),
    "odd-out-of-range": _with_term("odd", [1]),
    "odd-not-integer": _with_term("odd", ["b1"]),
    "even-number": _with_term("even", 3),
    "even-unknown-name": _with_term("even", {"zz": 1}),
    "even-negative-exponent": _with_term("even", {"x1": -1}),
    "even-text-exponent": _with_term("even", {"x1": "2"}),
    "coeff-list": _with_term("coeff", [1]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MORPHISMS))
def test_certify_malformed_morphism_exit_two(capsys, tmp_path, case):
    data = MALFORMED_MORPHISMS[case](make_sphere_projector(1).g.to_json())
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "certify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _without(key):
    return lambda data: {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_with_term("coeff", "1/0"), "coefficient '1/0' is not a rational number"),
        (_without("source"), "a morphism has no 'source'"),
        (_without("matrix"), "a morphism has no 'matrix'"),
    ],
    ids=["coeff-zero-denominator", "no-source", "no-matrix"],
)
def test_certify_malformed_morphism_names_the_problem(capsys, tmp_path, mutate, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(mutate(make_sphere_projector(1).g.to_json())))
    code, out, err = run(capsys, "certify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def _identity_over(ring):
    return SuperMorphism.identity(ring, FreeType(1, 0)).to_json()


COEFFICIENT_RINGS = {
    "z6": lambda: _identity_over(z6_ring()),
    "gaussian": lambda: _identity_over(grassmann_ring(1, GaussianRationalRing())),
    "radical": lambda: projector_p(1).to_json(),
}


@pytest.mark.parametrize("coeff", [5.5, [1], {"re": [1], "im": "0"}, "x", None, [5], {"rad": 2}])
@pytest.mark.parametrize("kind", sorted(COEFFICIENT_RINGS))
def test_certify_malformed_coefficient_exit_two(capsys, tmp_path, kind, coeff):
    data = COEFFICIENT_RINGS[kind]()
    data["matrix"][0][0][0]["coeff"] = coeff
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "certify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


HUGE_RADICAND = [{"rad": 100000000000000000039, "re": "1", "im": "0"}]  # trial division would not end


def _radicand_morphism(path):
    data = projector_p(1).to_json()
    data["matrix"][0][0][0]["coeff"] = HUGE_RADICAND
    path.write_text(json.dumps(data))
    return ["certify", str(path)]


def _radicand_ring(path):
    base = {"kind": "gaussian_radical"}
    rhs = [{"exps": {}, "c": HUGE_RADICAND}]
    coeffs = {"kind": "poly_quotient", "vars": ["x"], "base": base, "relation": {"lead": "x", "rhs": rhs}}
    path.write_text(json.dumps({"coeffs": coeffs}))
    return ["eval", "x", "--ring", str(path)]


@pytest.mark.parametrize("command", [_radicand_morphism, _radicand_ring], ids=["certify", "eval"])
def test_radicand_above_the_bound_exits_two_at_once(capsys, tmp_path, command):
    argv = command(tmp_path / "input.json")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: radicand 100000000000000000039 is outside 1..4294967296\n"


def test_radicand_that_is_not_an_integer_is_named(capsys, tmp_path):
    data = projector_p(1).to_json()
    data["matrix"][0][0][0]["coeff"] = [{"rad": "abc", "re": "1", "im": "0"}]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "certify", str(path))
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and err.count("\n") == 1 and "radicand 'abc'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["grassmann-laws", "--count", "-5"],
        ["hom-grading", "--count", "0"],
        ["example-2-6", "--max-n", "-3"],
        ["example-2-6", "--L", "0"],
        ["landi", "--n", "0"],
        ["nilpotency", "--count", "ten"],
    ],
)
def test_verify_rejects_sizes_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}:" in err and "Traceback" not in err


@pytest.mark.parametrize("suite", ["example-2-6", "sqrt"])
def test_verify_below_two_generators_names_the_option(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--L", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {suite} needs --L of at least 2, got 1") and "Traceback" not in err


def _expect_one_error_line(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "recursion" in err


def test_deeply_nested_expression_exits_two(capsys, grassmann_ring_file):
    _expect_one_error_line(capsys, "eval", "(" * 1000 + "b1" + ")" * 1000, "--ring", grassmann_ring_file)


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    _expect_one_error_line(capsys, "certify", str(path))
    _expect_one_error_line(capsys, "eval", "1", "--ring", str(path))


def _untimed(text):
    return re.sub(r"clauses, \d+\.\d+s\)", "clauses, #s)", text)


def _run_alone(argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(superalg.__file__).parent.parent))
    code = "import sys; from superalg.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    return done.returncode, _untimed(done.stdout), done.stderr


def test_calls_in_one_process_match_calls_alone(capsys, tmp_path, grassmann_ring_file):
    """The parser is built once per process; each call still reads only its own arguments."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(make_sphere_projector(1).g.to_json()))
    calls = [
        ["verify", "z6"],
        ["verify", "nonsense"],
        ["eval", "1/2 + b1*b2", "--ring", grassmann_ring_file],
        ["certify", str(path)],
    ]
    in_sequence = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_sequence.append((code, _untimed(captured.out), captured.err))
    assert [code for code, _, _ in in_sequence] == [0, 2, 0, 0]
    assert in_sequence == [_run_alone(argv) for argv in calls]


def test_eval_division_by_zero_exit_two(capsys, grassmann_ring_file):
    code, out, err = run(capsys, "eval", "1/0", "--ring", grassmann_ring_file)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:")


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # 0: this Python converts integers of any length


def _certify_coefficient(path, coeff_text):
    data = make_sphere_projector(1).g.to_json()
    data["matrix"][0][0][0]["coeff"] = "@"
    path.write_text(json.dumps(data).replace('"@"', coeff_text))
    return ["certify", str(path)]


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer digit limit in this Python")
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", ["print", "read-string", "read-literal"])
def test_coefficient_past_the_digit_limit_is_named(capsys, tmp_path, grassmann_ring_file, fmt, case):
    """Python will not convert an integer of more than DIGIT_LIMIT digits to or from text; exit 2 names it."""
    digits = "7" * 5000
    path = tmp_path / "g.json"
    if case == "print":  # 2^20000 has 6,021 digits
        argv, message = ["eval", "(2+b1*b2)^20000", "--ring", grassmann_ring_file], "a coefficient"
    elif case == "read-string":
        argv, message = _certify_coefficient(path, f'"{digits}"'), "coefficient '" + "7" * 29 + "... (5002 characters)"
    else:
        argv, message = _certify_coefficient(path, digits), f"a number in {path}"
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: {message} has more than {DIGIT_LIMIT} digits, the most Python converts to or from text\n"


def test_eval_expression_with_a_leading_minus_goes_after_double_dash(capsys, grassmann_ring_file):
    """Without ``--`` argparse reads ``-b1*b2`` as an option; after it, as the expression."""
    assert run(capsys, "eval", "--ring", grassmann_ring_file, "--", "-b1*b2") == (0, "-1*b1*b2\n", "")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer digit limit in this Python")
def test_chained_power_past_the_digit_limit_exits_two_at_once(capsys, grassmann_ring_file):
    """``(71/227)^927^9`` has a denominator of 19,656 digits, so its 212th power is refused before it is formed."""
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "(71/227)^927^9^212", "--ring", grassmann_ring_file)
    assert (code, out) == (2, "")
    assert err == f"error: a coefficient has more than {DIGIT_LIMIT} digits, the most Python converts to or from text\n"
    assert time.perf_counter() - start < 5


GAUSSIAN_RING = {"coeffs": {"kind": "gaussian_rational"}, "odd_generators": ["b1"]}


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer digit limit in this Python")
@pytest.mark.parametrize("text, ring", [
    ("(71/227)^927^32767", grassmann_ring(2).to_json()),
    ("9^1000^32767", grassmann_ring(2).to_json()),
    ("(71/227)^927^32767", make_uosp_ring().to_json()),
    ("(71/227)^927^32767", GAUSSIAN_RING),
    ("(71/227 + 1/3*i)^927^32767", GAUSSIAN_RING),
], ids=["rational", "integer", "quotient", "gaussian", "gaussian-complex"])
def test_a_power_whose_body_cannot_print_exits_two_before_it_is_formed(capsys, tmp_path, text, ring):
    """``(71/227)^927`` has a denominator of 2,185 digits and ``9^1000`` 955 digits, so their 32,767th
    powers (71.6 and 31.3 million digits) are never formed: over the rationals, as the constant of a
    quotient ring and as a Gaussian rational."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", text, "--ring", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: a coefficient has more than {DIGIT_LIMIT} digits, the most Python converts to or from text\n"
    assert time.perf_counter() - start < 1


@pytest.mark.skipif(not 45 < DIGIT_LIMIT <= MAX_EXPONENT, reason="no integer digit limit below the largest exponent")
def test_a_gaussian_power_that_prints_is_formed(capsys, tmp_path):
    """``((1 + 127i)/128)^e`` sheds ``2^(e/2)`` from its denominator, so at ``e = (DIGIT_LIMIT+1)//2`` its
    largest integer has about 0.98 DIGIT_LIMIT digits and prints, though ``e*(D-1)``, D = 3 the digits of 128,
    reaches the limit: the rational rule would refuse it."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(GAUSSIAN_RING))
    code, out, err = run(capsys, "eval", f"(1/128 + 127/128*i)^{(DIGIT_LIMIT + 1) // 2}", "--ring", str(path))
    assert (code, err) == (0, "")
    assert 0.9 * DIGIT_LIMIT < max(len(part) for part in re.findall("[0-9]+", out)) <= DIGIT_LIMIT


@pytest.mark.skipif(not 0 < DIGIT_LIMIT <= MAX_EXPONENT, reason="no integer digit limit below the largest exponent")
@pytest.mark.parametrize("base", ["10", "-1/10"])
def test_a_power_whose_body_prints_is_formed(capsys, grassmann_ring_file, base):
    """``10^(DIGIT_LIMIT-1)`` has DIGIT_LIMIT digits, the most that print: formed; one power more exits 2."""
    code, out, err = run(capsys, "eval", f"({base})^{DIGIT_LIMIT - 1}", "--ring", grassmann_ring_file)
    assert (code, err) == (0, "")
    assert out.split("/")[-1] == "1" + "0" * (DIGIT_LIMIT - 1) + "\n"
    code, out, err = run(capsys, "eval", f"({base})^{DIGIT_LIMIT}", "--ring", grassmann_ring_file)
    assert (code, out) == (2, "")
    assert err == f"error: a coefficient has more than {DIGIT_LIMIT} digits, the most Python converts to or from text\n"


@pytest.mark.skipif(not 0 < DIGIT_LIMIT <= MAX_EXPONENT, reason="no integer digit limit below the largest exponent")
@pytest.mark.parametrize("text", ["10^{L} - 10^{L}", "0*10^{L}"], ids=["difference", "zero-times"])
def test_a_power_whose_body_cannot_print_exits_two_though_the_value_prints(capsys, grassmann_ring_file, text):
    """Each power is read as it is formed: ``10^DIGIT_LIMIT`` exits 2 though the expression's value, 0, prints."""
    code, out, err = run(capsys, "eval", text.format(L=DIGIT_LIMIT), "--ring", grassmann_ring_file)
    assert (code, out) == (2, "")
    assert err == f"error: a coefficient has more than {DIGIT_LIMIT} digits, the most Python converts to or from text\n"
