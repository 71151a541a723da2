#!/usr/bin/env python3
"""Committed mutation checks: each mutant of ``src/`` must make its named tests fail.

    python3 tests/mutants.py               # every mutant
    python3 tests/mutants.py no-doubling   # only the named mutants

Each row of ``MUTANTS`` names a file under ``src/``, an exact text that must
occur in it once, the text that replaces it, and the test nodes that must
fail on the result.  For each mutant the script copies ``src/`` to a
temporary directory, applies the one replacement there and runs only the
named tests against the copy; the tree itself is never edited.  First it
runs all the named tests against the unmutated ``src/``, which must pass.

The exit code is 0 when every mutant is killed, and 1 when a mutant
survives, when an old text no longer occurs exactly once (so a refactor
carries its mutants along) or when the named tests fail on the unmutated
tree.  pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SQUARES = "tests/test_grassmann_squares.py"

# (name, file under src/, exact old text, mutant text, test nodes that must fail)
MUTANTS = [
    (
        "no-doubling",
        "superalg/superring.py",
        "((b1, add(c1, c1)), (even[i + 1:]",
        "((b1, c1), (even[i + 1:]",
        [f"{SQUARES}::test_squares_at_the_edges"],
    ),
    (
        "odd-times-odd-kept",
        "superalg/superring.py",
        "even = sorted((b, c) for b, c in left.items() if not b.bit_count() & 1)",
        "even = sorted(left.items())",
        [f"{SQUARES}::test_squares_at_the_edges"],
    ),
    (
        "walk-stops-before-0",
        "superalg/superring.py",
        "    while sub >= lo:\n",
        "    while sub > lo:\n",
        [f"{SQUARES}::test_high_grade_times_dense_looks_up_submasks"],
    ),
    (
        "switch-inverted",
        "superalg/superring.py",
        "if b1.bit_count() >= grade:",
        "if b1.bit_count() < grade:",
        [
            f"{SQUARES}::test_high_grade_times_dense_looks_up_submasks",
            f"{SQUARES}::test_dense_times_high_grade_scans",
        ],
    ),
    (
        "reach-without-union",
        "superalg/superanalysis.py",
        "reach |= {r | b for r in reach if not r & b}",
        "reach |= {b for r in reach if not r & b}",
        [
            "tests/test_superanalysis.py::TestSqrt::test_sparse_root_solves_only_reachable_grades",
            "tests/test_superanalysis.py::test_sqrt_even_matches_binomial_on_sparse_souls[10]",
        ],
    ),
    (
        "koszul-factor-dropped",
        "superalg/supermodule.py",
        "term = _koszul(phi.matrix[k][i], tgt2[l]) * _koszul(",
        "term = phi.matrix[k][i] * _koszul(",
        ["tests/test_supermodule.py::TestTensor::test_tensor_morphisms_koszul_law"],
    ),
    (
        "sign-mask-without-32",
        "superalg/multiindex.py",
        "        x ^= x >> 32\n",
        "",
        ["tests/test_multiindex.py::test_sign_mask_is_the_parity_above_each_bit"],
    ),
    (
        "divided-always-fraction",
        "superalg/scalars.py",
        "return {k: n // d if n % d == 0 else Fraction(n, d) for k, n in w.items()}",
        "return {k: Fraction(n, d) for k, n in w.items()}",
        ["tests/test_fraction_free.py::test_denominators_that_divide_out_to_an_int"],
    ),
    (
        "lcm-of-one-operand",
        "superalg/scalars.py",
        "return _INTEGERS, du * dv, u2, v2",
        "return _INTEGERS, du, u2, v2",
        ["tests/test_fraction_free.py::test_product_matches_the_pairwise_fraction_oracle"],
    ),
    (
        "relation-always-min",
        "superalg/scalars.py",
        "k = exps[i] // 2 if i == j else min(exps[i], exps[j])",
        "k = min(exps[i], exps[j])",
        ["tests/test_normal_form_oracle.py::test_normal_form_matches_sympy_reduced"],
    ),
    (
        "rewrite-one-step",
        "superalg/scalars.py",
        "k = exps[i] // 2 if i == j else min(exps[i], exps[j])",
        "k = min(1, exps[i] // 2 if i == j else min(exps[i], exps[j]))",
        ["tests/test_flat_products.py::test_product_matches_the_term_by_term_reference"],
    ),
    (
        "uosp-odd-sign-flipped",
        "superalg/superring.py",
        "images[self._odd_pos[v]] = (1 << self._odd_pos[u], -1)",
        "images[self._odd_pos[v]] = (1 << self._odd_pos[u], 1)",
        ["tests/test_value_contract.py::test_uosp_involution_reverses_products_and_squares_to_the_parity_sign"],
    ),
]


def run_tests(src: Path, nodes) -> int:
    """pytest's exit code for ``nodes`` with ``superalg`` imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    nodes = list(dict.fromkeys(node for m in chosen for node in m[4]))
    start = time.perf_counter()
    code = run_tests(ROOT / "src", nodes)
    if code != 0:
        print(f"the named tests do not pass on the unmutated tree (pytest exit {code})")
        return 1
    failures = 0
    for name, path, old, new, tests in chosen:
        text = (ROOT / "src" / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            print(f"STALE     {name}: the old text occurs {text.count(old)} times in src/{path}")
            failures += 1
            continue
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            (src / path).write_text(text.replace(old, new), encoding="utf-8")
            code = run_tests(src, tests)
        if code == 1:
            print(f"killed    {name}")
        else:
            print(f"SURVIVED  {name}: pytest exit {code} on {' '.join(tests)}")
            failures += 1
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
