"""The benchmark's workloads: seeded, self-contained exact verifications.

A *case* builds its inputs from its own seed, runs public superalg code, and
checks an identity with the library's own equality.  ``run_case`` returns the
names of the checks that failed; an empty list is a verified case.  Every
case of a workload belongs to one *size class*; a cycle of the workload runs
each class as often as ``Workload.mix`` says, in a seeded order, so the proportions of
a run made of whole cycles are exact.

Library entry points are looked up on their modules at call time
(``sa.make_bra``, ``superalg.cli.main``), so the trace wrappers, which
replace those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import superalg as sa
import superalg.cli
import superalg.spheres
import superalg.superanalysis
import superalg.suites
from superalg.supermodule import ModElement
from superalg.superring import SuperElement

SUITE_NAMES = tuple(sorted(superalg.suites.SUITES))


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


# -- landi: rank-one supersphere projectors over the uosp ring ----------------


def landi_setup(workdir: Path) -> dict:
    return {"uosp": sa.make_uosp_ring()}


def _vector_entry(ring, rng: random.Random) -> SuperElement:
    """``sum_mu r_mu x_mu mu`` over the odd monomials mu of eta, etad, with a
    random rational r_mu and a random even generator x_mu.

    Every entry has the same shape, so a case's cost depends on its level and
    hardly on its seed.
    """
    coeff = ring.coeff
    return ring.element({
        mask: coeff.mul(coeff.from_fraction(_rational(rng)), coeff.var(rng.choice(coeff.variables)))
        for mask in range(1 << ring.odd_count)
    })


def landi_case(ctx: dict, cls: str, rng: random.Random) -> list:
    n = int(cls[1:])
    ring = ctx["uosp"]
    bra = sa.make_bra(n, ring)
    checks = {"inner-is-one": sa.inner(bra) == ring.one()}
    p = sa.projector_p(n, ring)
    checks["p-idempotent"] = p.compose(p) == p
    checks["p-self-adjoint"] = p.super_adjoint() == p
    v = ModElement(ring, bra.ftype, [_vector_entry(ring, rng) for _ in range(bra.ftype.size)])
    pv = sa.pi_apply(bra, v)
    checks["pi-matches-p"] = pv == p.apply(v)
    checks["pi-idempotent"] = sa.pi_apply(bra, pv) == pv
    return [name for name, ok in checks.items() if not ok]


# -- grassmann: dense even elements in pure Grassmann rings over Q ------------


def grassmann_setup(workdir: Path) -> dict:
    return {L: sa.grassmann_ring(L) for L in range(8, 13)}


def _dense_pairs(L: int, rng: random.Random, draw) -> dict:
    """Coefficients ``c_ij`` (i < j) of ``theta = sum c_ij b_i b_j``."""
    return {(i, j): draw(rng) for i in range(L) for j in range(i + 1, L)}


def _small_int(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 3)


def _theta(ring, pairs: dict) -> SuperElement:
    return ring.element({(1 << i) | (1 << j): Fraction(c) for (i, j), c in pairs.items()})


def pfaffian(pairs: dict, size: int) -> int:
    """Pfaffian of the antisymmetric matrix ``a[i][j] = c_ij`` on indices ``< size``.

    Expansion along the lowest remaining index; an oracle independent of the
    Grassmann product.
    """
    memo = {0: 1}

    def pf(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        total, sign, bits = 0, 1, rest
        while bits:
            j = (bits & -bits).bit_length() - 1
            total += sign * pairs[(i, j)] * pf(rest ^ (1 << j))
            sign = -sign
            bits &= bits - 1
        memo[mask] = total
        return total

    return pf((1 << size) - 1)


def grassmann_case(ctx: dict, cls: str, rng: random.Random) -> list:
    kind, size = cls.split("-L")
    L = int(size)
    ring = ctx[L]
    if kind == "sqrt":
        # sqrt_even(c^2 + theta) against the binomial-series oracle.
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        z = ring.from_fraction(c * c) + _theta(ring, _dense_pairs(L, rng, _rational))
        x = sa.sqrt_even(z, c)
        ok = x == superalg.superanalysis.sqrt_even_binomial(z, c)
        return [] if ok else ["sqrt-matches-binomial-oracle"]
    if kind == "trig":
        # Series backend: sin^2 + cos^2 = 1 for a nilpotent even angle.
        theta = _theta(ring, _dense_pairs(L, rng, _rational))
        s, co = sa.super_sin(theta), sa.super_cos(theta)
        return [] if s * s + co * co == ring.one() else ["sin2-plus-cos2"]
    # Example 2.6 with integer c_ij: the coefficient of b_1..b_2n in theta^n
    # is n! * Pf(c restricted to 1..2n); all c_ij = 1 gives the paper's n!.
    pairs = _dense_pairs(L, rng, _small_int)
    theta = _theta(ring, pairs)
    coeff = ring.coeff
    power = ring.one()
    failed = []
    for n in range(1, L // 2 + 1):
        power = power * theta
        got = power.terms.get((1 << (2 * n)) - 1, coeff.zero())
        expect = coeff.from_fraction(math.factorial(n) * pfaffian(pairs, 2 * n))
        if not coeff.eq(got, expect):
            failed.append(f"coeff-x^{n}")
    return failed


# -- cli: the command-line front door, in process ------------------------------


def cli_setup(workdir: Path) -> dict:
    """Build the descriptor rings and write them where ``eval --ring`` reads them."""
    rings = {
        "sphere": superalg.spheres.sphere_ring(2, odd_names=("e1", "e2")),
        "uosp": sa.make_uosp_ring(),
    }
    paths = {}
    for name, ring in rings.items():
        paths[name] = workdir / f"ring-{name}.json"
        paths[name].write_text(json.dumps(ring.to_json()), encoding="utf-8")
    return {"rings": rings, "paths": paths, "workdir": workdir}


def _cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = superalg.cli.main(argv)
    return code, out.getvalue()


def _random_expr(rng: random.Random, ring, names: tuple, depth: int) -> tuple:
    """A random expression as ``(text, element)``; the element is built through the API."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            p, q = rng.randint(1, 9), rng.randint(1, 4)
            return f"{p}/{q}", ring.from_fraction(Fraction(p, q))
        name = rng.choice(names)
        return name, ring.generator(name)
    op = rng.choice("+-**^")
    lt, lv = _random_expr(rng, ring, names, depth - 1)
    if op == "^":
        k = rng.randint(2, 3)
        return f"({lt})^{k}", lv ** k
    rt, rv = _random_expr(rng, ring, names, depth - 1)
    value = lv + rv if op == "+" else lv - rv if op == "-" else lv * rv
    return f"({lt}) {op} ({rt})", value


def _certify_input(ctx: dict, cls: str) -> tuple:
    """A morphism and whether it is idempotent, known by construction."""
    kind, n = cls.rsplit("-n", 1)
    if kind == "certify-sphere":
        return superalg.spheres.make_sphere_projector(int(n)).g, True
    if kind == "certify-landi":
        return sa.projector_p(int(n), ctx["rings"]["uosp"]), True
    # 2g for an idempotent g != 0: (2g)^2 = 4g != 2g.
    g = superalg.spheres.make_sphere_projector(int(n)).g
    return g + g, False


def cli_case(ctx: dict, cls: str, rng: random.Random) -> list:
    seed = rng.randrange(1 << 16)
    if cls.startswith("verify-"):
        code, out = _cli(["verify", cls[len("verify-"):], "--seed", str(seed), "--format", "json"])
        return [] if code == 0 and json.loads(out)["pass"] is True else ["suite-pass"]
    if cls == "eval":
        kind = rng.choice(("sphere", "uosp"))
        ring = ctx["rings"][kind]
        text, expect = _random_expr(rng, ring, ring.generator_names(), 3)
        code, out = _cli(["eval", text, "--ring", str(ctx["paths"][kind]), "--format", "json"])
        return [] if code == 0 and SuperElement.from_json(json.loads(out)) == expect else ["eval-matches-api"]
    g, idempotent = _certify_input(ctx, cls)
    path = ctx["workdir"] / "morphism.json"
    path.write_text(json.dumps(g.to_json()), encoding="utf-8")
    code, out = _cli(["certify", str(path), "--format", "json"])
    report = json.loads(out)
    ok = code == (0 if idempotent else 1) and report["pass"] is idempotent
    return [] if ok else ["certify-verdict"]


class Workload:
    """A named case mix: ``mix`` maps each size class to its cases per cycle."""

    def __init__(self, name: str, mix: dict, setup, case):
        self.name = name
        self.mix = dict(mix)
        self.setup = setup
        self.run_case = case

    def cycle(self, seed: int, index: int):
        """The cases of one cycle as ``(class, case seed)``, in seeded order."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        order = [cls for cls, count in self.mix.items() for _ in range(count)]
        rng.shuffle(order)
        return [(cls, rng.getrandbits(48)) for cls in order]


WORKLOADS = {
    # Sorted by latency the classes form blocks n1 [0, .75], n2 [.75, .95],
    # then n3 and n4: p50 lies in n1 and p90 in n2, each near the middle of
    # its class, where a class's latencies repeat better than in its tail.
    "landi": Workload("landi", {"n1": 30, "n2": 8, "n3": 1, "n4": 1}, landi_setup, landi_case),
    # Blocks: trig-L8 [0, .20], sqrt-L8 [.20, .30], power-L10 [.30, .70],
    # sqrt-L9 [.70, .80], trig-L10 [.80, .95], then power-L12 and sqrt-L10:
    # p50 lies in power-L10 and p90 in trig-L10.
    "grassmann": Workload(
        "grassmann",
        {
            "trig-L8": 8, "sqrt-L8": 4, "power-L10": 16, "sqrt-L9": 4, "trig-L10": 6,
            "power-L12": 1, "sqrt-L10": 1,
        },
        grassmann_setup, grassmann_case,
    ),
    # A certify class is one level n, so its latencies are tight.  Blocks:
    # eval [0, .28], certify-sphere-n1 [.28, .71], then the nonidempotent
    # certificates and the sphere-projector suite, certify-sphere-n2
    # [.74, .95], then the other suites and the larger morphisms: p50 lies
    # in certify-sphere-n1 (JSON in and out, compose, split) and p90 in
    # certify-sphere-n2.
    "cli": Workload(
        "cli",
        {
            "eval": 120, "certify-sphere-n1": 180, "certify-nonidempotent-n2": 12,
            "certify-sphere-n2": 90, "certify-sphere-n3": 4, "certify-landi-n1": 4,
            "certify-landi-n2": 2, **{f"verify-{name}": 1 for name in SUITE_NAMES},
        },
        cli_setup, cli_case,
    ),
}
