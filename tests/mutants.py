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
CANCELLATION = "tests/test_product_cancellation.py"
PACKED = "tests/test_packed_keys.py"
FLAT = "tests/test_flat_products.py"
ONE_PASS = "tests/test_one_pass_maps.py"
INTERNING = "tests/test_ring_interning.py"
RELATION = "tests/test_relation_forms.py"
LANDI = "tests/test_landi.py"
DRAWS = "tests/test_draws.py"
POWER = "tests/test_power_rule.py"
STORED = "tests/test_gaussian_stored_form.py"

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
        "accumulate-overwrites",
        "superalg/superring.py",
        "out[b] = c if acc is None else add(acc, c)",
        "out[b] = c",
        [f"{CANCELLATION}::test_products_that_cancel_at_one_key"],
    ),
    (
        "zero-kept",
        "superalg/superring.py",
        "terms = {b: c for b, c in out.items() if c}",
        "terms = out",
        [f"{CANCELLATION}::test_products_that_cancel_everywhere"],
    ),
    (
        "quotient-accumulate-overwrites",
        "superalg/scalars.py",
        "out[key] = c if acc is None else plus(acc, c)",
        "out[key] = c",
        [f"{CANCELLATION}::test_quotient_rewrite_that_cancels_a_kept_term[sphere-rational]"],
    ),
    (
        "quotient-radical-accumulate-overwrites",
        "superalg/scalars.py",
        "out[key] = c if acc is None else plus(acc, c)",
        "out[key] = c",
        [f"{CANCELLATION}::test_quotient_rewrite_that_cancels_a_kept_term[uosp]"],
    ),
    (
        "radicand-of-one-dropped",
        "superalg/scalars.py",
        "r = s * t",
        "r = 1",
        ["tests/test_flat_products.py::test_product_matches_the_term_by_term_reference"],
    ),
    (
        "rewrite-radicand-dropped",
        "superalg/scalars.py",
        "rewrites.append((tag, False, {(exps, s): c}",
        "rewrites.append((tag, False, {(exps, 1): c}",
        ["tests/test_normal_form_oracle.py::test_normal_form_matches_sympy_reduced"],
    ),
    (
        "quotient-zero-kept",
        "superalg/scalars.py",
        "return {key: c for key, c in out.items() if c}",
        "return out",
        [f"{CANCELLATION}::test_quotient_sum_of_products_that_cancels_everywhere"],
    ),
    (
        "sqrt-cross-products-undoubled",
        "superalg/superanalysis.py",
        "(ys[a] + ys[a]) * ys[g - a]",
        "ys[a] * ys[g - a]",
        [
            "tests/test_superanalysis.py::test_sqrt_even_matches_binomial_on_sparse_souls[10]",
            "tests/test_superanalysis.py::TestSqrt::test_dense_root_is_one_product_per_pair_of_grades[10-7]",
        ],
    ),
    (
        "sqrt-squares-dropped",
        "superalg/superanalysis.py",
        "if 2 * a <= g and g - a in ys",
        "if 2 * a < g and g - a in ys",
        [
            "tests/test_superanalysis.py::TestSqrt::test_sparse_root_multiplies_only_present_parts",
            "tests/test_superanalysis.py::TestSqrt::test_trivial_and_closure_cases",
        ],
    ),
    (
        "jet-degree-unchecked",
        "superalg/superanalysis.py",
        "if not counts or sum(k) > order:",
        "if False:",
        ["tests/test_superanalysis.py::TestJets::test_constructor_refuses_a_degree_that_is_not_a_count[-1]"],
    ),
    (
        "jet-zeros-kept",
        "superalg/superanalysis.py",
        "            if v:\n                table[k] = v\n",
        "            table[k] = v\n",
        ["tests/test_superanalysis.py::TestJets::test_constructor_drops_zero_values"],
    ),
    (
        "smooth-fn-arity-unchecked",
        "superalg/superanalysis.py",
        "if any(type(b) is not int or b >> self.odd_arity for b in self.jets):",
        "if False:",
        ["tests/test_superanalysis.py::TestGInfinity::test_constructor_refuses_an_index_past_the_odd_arity[past-arity]"],
    ),
    (
        "involution-pairs-kept-as-given",
        "superalg/superring.py",
        "tuple(map(tuple, pairs))",
        "pairs",
        ["tests/test_superring.py::test_involution_pairs_given_as_lists_build_the_same_ring"],
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
        "return (exps >> i & _FIELD) // 2 if i == j else min(exps >> i & _FIELD, exps >> j & _FIELD)",
        "return min(exps >> i & _FIELD, exps >> j & _FIELD)",
        ["tests/test_normal_form_oracle.py::test_normal_form_matches_sympy_reduced"],
    ),
    (
        "rewrite-one-step",
        "superalg/scalars.py",
        "return (exps >> i & _FIELD) // 2 if i == j else min(exps >> i & _FIELD, exps >> j & _FIELD)",
        "return min(1, (exps >> i & _FIELD) // 2 if i == j else min(exps >> i & _FIELD, exps >> j & _FIELD))",
        ["tests/test_flat_products.py::test_product_matches_the_term_by_term_reference"],
    ),
    (
        "exponent-guard-dropped",
        "superalg/scalars.py",
        "if exps & guard:  # one test per output term, none per term product",
        "if False:",
        [f"{PACKED}::test_the_largest_exponent_is_32767"],
    ),
    (
        "rewrite-guard-dropped",
        "superalg/scalars.py",
        "exps -= k * step\n            if exps & guard:",
        "exps -= k * step\n            if False:",
        [f"{PACKED}::test_a_rewrite_that_would_carry_is_refused"],
    ),
    (
        "rename-never-normalizes",
        "superalg/scalars.py",
        "normal = self.relation is None or sorted(perm[h] for h in self._heads) == sorted(self._heads)",
        "normal = True",
        [f"{PACKED}::test_substitute_vars_matches_sympy_reduced[uosp-heads-moved]"],
    ),
    (
        "group-split-wrong-bits",
        "superalg/superring.py",
        "out[tag >> shift][tag & full] = value",
        "out[tag >> (shift + 1)][tag & full] = value",
        [f"{FLAT}::test_sums_of_products_are_the_sums_of_each_group[uosp]"],
    ),
    (
        "bra-exponents-swapped",
        "superalg/landi.py",
        "exps[ad], exps[bd] = m - k, k",
        "exps[ad], exps[bd] = k, m - k",
        [f"{LANDI}::test_bra_entries_are_the_chained_products[2]"],
    ),
    (
        "gaussian-real-path-for-imaginary-right",
        "superalg/scalars.py",
        "if b or e:",
        "if b:",
        ["tests/test_scalar_layer.py::test_products_and_sums_with_an_imaginary_part_match_fraction_pairs"],
    ),
    (
        "gaussian-int-sum-unscaled",
        "superalg/scalars.py",
        "a, b = self.a + other * d, self.b",
        "a, b = self.a + other, self.b",
        [f"{STORED}::test_sums_and_differences_match_fraction_pairs"],
    ),
    (
        "gaussian-integer-product-kept-as-triple",
        "superalg/scalars.py",
        "        if d == 1 and not b:\n            return a\n        z = object.__new__(GaussianRational)\n"
        "        z.a, z.b, z.d = a, b, d\n        return z\n\n    __rmul__ = __mul__\n",
        "        z = object.__new__(GaussianRational)\n"
        "        z.a, z.b, z.d = a, b, d\n        return z\n\n    __rmul__ = __mul__\n",
        [f"{STORED}::test_products_match_fraction_pairs"],
    ),
    (
        "gaussian-integer-triple-hashes-as-triple",
        "superalg/scalars.py",
        "return hash(self.a) if self.d == 1 and not self.b else hash((self.a, self.b, self.d))",
        "return hash((self.a, self.b, self.d))",
        [f"{STORED}::test_a_directly_built_integer_equals_and_hashes_as_the_int"],
    ),
    (
        "uosp-odd-sign-flipped",
        "superalg/superring.py",
        "images[self._odd_pos[v]] = (1 << self._odd_pos[u], -1)",
        "images[self._odd_pos[v]] = (1 << self._odd_pos[u], 1)",
        ["tests/test_value_contract.py::test_uosp_involution_reverses_products_and_squares_to_the_parity_sign"],
    ),
    (
        "involution-sign-dropped",
        "superalg/superring.py",
        "terms[image] = c if sign > 0 else neg(c)",
        "terms[image] = c",
        ["tests/test_element_rules.py::test_involution_of_a_long_monomial"],
    ),
    (
        "degree-ignores-target-parities",
        "superalg/supermodule.py",
        "(b.bit_count() + tgt[i] + src[j]) & 1",
        "(b.bit_count() + src[j]) & 1",
        [f"{ONE_PASS}::test_degree_reads_the_target_parities"],
    ),
    (
        "scale-zeros-kept",
        "superalg/superring.py",
        "{b: p for b, v in self.terms.items() if (p := mul(v, c))}",
        "{b: mul(v, c) for b, v in self.terms.items()}",
        ["tests/test_element_rules.py::test_scale_drops_zero_products_over_z6"],
    ),
    (
        "intern-key-drops-relation",
        "superalg/scalars.py",
        "descriptor = ring._identity()",
        'descriptor = repr({**ring.to_json(), "relation": None})',
        [f"{INTERNING}::test_descriptors_that_differ_in_one_field_give_distinct_rings"],
    ),
    (
        "entry-stored-before-build",
        "superalg/scalars.py",
        "        _building += 1\n",
        "        _rings[key] = key  # reserved while the ring is built\n        _building += 1\n",
        [f"{INTERNING}::test_a_malformed_descriptor_raises_on_every_call"],
    ),
    (
        "table-drops-one-key",
        "superalg/scalars.py",
        "            _rings.clear()\n",
        "            del _rings[next(iter(_rings))]\n",
        [f"{INTERNING}::test_a_flood_of_descriptors_leaves_the_table_consistent"],
    ),
    (
        "table-emptied-mid-build",
        "superalg/scalars.py",
        "if not _building and len(_rings) >= INTERN_LIMIT:",
        "if len(_rings) >= INTERN_LIMIT:",
        [
            f"{INTERNING}::test_a_flood_of_descriptors_leaves_the_table_consistent",
            f"{INTERNING}::test_a_miss_inside_a_build_keeps_what_the_build_stored",
        ],
    ),
    (
        "ring-over-an-unstored-coefficient-ring",
        "superalg/superring.py",
        "SuperRing(canonical(coeff or RationalRing()),",
        "SuperRing(coeff or RationalRing(),",
        [f"{INTERNING}::test_a_ring_built_over_a_given_coefficient_ring_stores_it_too"],
    ),
    (
        "bundle-key-drops-ring",
        "superalg/spheres.py",
        "shared(ring, factory_key(make_sphere_projector, n),",
        "shared(sphere_ring(n), factory_key(make_sphere_projector, n),",
        [f"{INTERNING}::test_one_sphere_projector_bundle_per_descriptor"],
    ),
    (
        "bundle-key-drops-types",
        "superalg/spheres.py",
        "factory_key(make_sphere_projector, n)",
        "(make_sphere_projector, n)",
        [f"{INTERNING}::test_one_sphere_projector_bundle_per_descriptor"],
    ),
    (
        "bundle-stored-before-checks",
        "superalg/spheres.py",
        "    bundle = SphereProjectorBundle(n, ring, g, alpha)\n",
        "    bundle = ring._shared[factory_key(make_sphere_projector, n)] = SphereProjectorBundle(n, ring, g, alpha)\n",
        [f"{INTERNING}::test_a_sphere_projector_that_fails_stores_nothing"],
    ),
    (
        "bra-key-drops-ring",
        "superalg/landi.py",
        "shared(ring, factory_key(_make_bra, n),",
        "shared(make_uosp_ring(), factory_key(_make_bra, n),",
        [f"{LANDI}::test_one_bra_and_projector_per_level_and_ring"],
    ),
    (
        "projector-built-per-call",
        "superalg/landi.py",
        "    @cached_property\n    def _projector",
        "    @property\n    def _projector",
        [f"{LANDI}::test_one_bra_and_projector_per_level_and_ring"],
    ),
    (
        "relation-rhs-object-accepted",
        "superalg/scalars.py",
        'if not isinstance(rel["rhs"], (str, list)):  # a JSON object would pass unread, as a ring value',
        "if False:",
        [f"{RELATION}::test_a_descriptor_rhs_that_is_a_json_object_exits_two[empty]"],
    ),
    (
        "relation-read-over-the-rationals",
        "superalg/scalars.py",
        "plain = PolyQuotientRing(base, self.variables)",
        "plain = PolyQuotientRing(RationalRing(), self.variables)",
        [f"{RELATION}::test_text_terms_and_value_give_one_ring[uosp]"],
    ),
    (
        "relation-keeps-its-text",
        "superalg/scalars.py",
        "                self.relation = Relation(heads, rhs)\n",
        "",
        [f"{RELATION}::test_text_terms_and_value_give_one_ring[trig]"],
    ),
    (
        "relation-rhs-python-object-accepted",
        "superalg/scalars.py",
        "            elif not isinstance(rhs, dict) or not all(",
        "            elif False and all(",
        [f"{RELATION}::test_a_python_rhs_that_is_no_ring_value_is_refused[int]"],
    ),
    (
        "power-exponent-unbounded",
        "superalg/expressions.py",
        "if exp > MAX_EXPONENT:",
        "if False:",
        [f"{RELATION}::test_an_exponent_past_the_limit_is_refused_before_the_power"],
    ),
    (
        "power-base-unchecked",
        "superalg/expressions.py",
        "                _printed(result)  # the base must print, whatever the exponent\n",
        "",
        [f"{POWER}::test_a_base_that_cannot_print_is_refused_at_every_exponent[0]"],
    ),
    (
        "power-partial-unprinted",
        "superalg/expressions.py",
        "self.spent += _printed(x) * ",
        "self.spent += len(x.terms) * ",
        [f"{POWER}::test_a_partial_power_that_cannot_print_is_refused_though_the_finished_power_prints"],
    ),
    (
        "power-finished-unprinted",
        "superalg/expressions.py",
        "                _printed(result)  # and so must the finished power\n",
        "",
        ["tests/test_cli.py::test_a_power_whose_body_cannot_print_exits_two_though_the_value_prints[difference]"],
    ),
    (
        "power-budget-off",
        "superalg/expressions.py",
        "        if self.spent > PRODUCT_BUDGET:\n",
        "        if False:\n",
        [f"{POWER}::test_a_power_past_the_product_budget_exits_two_at_once[sphere]"],
    ),
    (
        "star-unchecked",
        "superalg/expressions.py",
        "                result = self.product(result, self.unary())\n",
        "                result = result * self.unary()\n",
        [f"{POWER}::test_a_power_past_the_product_budget_exits_two_at_once[chain-32]"],
    ),
    (
        "budget-per-product",
        "superalg/expressions.py",
        "self.spent += _printed(x)",
        "self.spent = _printed(x)",
        [f"{POWER}::test_a_power_past_the_product_budget_exits_two_at_once[sum-of-five]"],
    ),
    (
        "below-keeps-n",
        "superalg/suites.py",
        "    while r >= n:",
        "    while r > n:",
        [f"{DRAWS}::test_draws_equal_the_reference_and_consume_the_stream_alike[0-grassmann-6]"],
    ),
    (
        "draw-memo-keyed-on-numerator",
        "superalg/suites.py",
        "key = i * cols + j",
        "key = i",
        [f"{DRAWS}::test_draws_equal_the_reference_and_consume_the_stream_alike[0-grassmann-6]"],
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
