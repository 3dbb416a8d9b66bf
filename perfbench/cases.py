"""Workload inputs for the apcong benchmark and the checks on their answers.

`build(workload, seed)` returns the case list of one workload as plain JSON
data: the argv handed to `apcong.cli.main` (with the group JSON fed on
stdin), or the group and sample count handed to `discover.closed_loop_check`.
The seed only picks the change of basis h applied to every input group, so
the work per case and every pinned answer are the same for every seed.

`check(case, rc, out)` returns the problems found in one answer.  It uses
invariants only (exit status, closed-form orders, Dickson labels, densities,
prime counts from an independent sieve, lines printed in the README), never
byte digests of whole outputs, so that additions to a report are not read as
failures.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("group-scale", "group-lattice", "data")

# Every family of apcong.constructions runs for q <= 13.  For larger q a fresh
# process pays for the F_{q^2} tables on almost every case (about 0.8 s per
# case at q = 23), so two families there keep a pass near 14 s.
LATTICE_QS = (5, 7, 9, 11, 13)
LATTICE_LARGE_QS = (17, 19, 23)
LATTICE_LARGE_FAMILIES = ("nonsplit_cartan_normalizer", "a4_lift")
# each group input comes in this many seeded conjugates; untraced pass k uses
# number k mod CONJUGATES
CONJUGATES = 3
CLOSED_LOOP_N = 100_000


def _pr(q: int) -> tuple[int, int]:
    """(p, r) with q = p**r for the field sizes used here."""
    return (3, 2) if q == 9 else (q, 1)


def _divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


# ---- closed forms for the families of apcong.constructions (odd q) ----------
#
# The order, the Dickson label with its parameter (n for Dihedral, q' for PSL2
# and PGL2) and the zero-trace density c.  For odd q, c is the share of
# involutions in the projective image.

def _frac(a: int, b: int) -> str:
    f = Fraction(a, b)
    return f"{f.numerator}/{f.denominator}"


def expect_family(family: str, q: int, n: int | None = None) -> dict:
    if family == "gl2":
        return dict(order=(q * q - 1) * (q * q - q), label="PGL2", param=q,
                    c=_frac(q, q * q - 1))
    if family == "sl2":
        inv = q - 1 if q % 4 == 1 else q + 1
        return dict(order=q * (q * q - 1), label="PSL2", param=q, c=_frac(1, inv))
    if family == "borel":
        return dict(order=q * (q - 1) ** 2, label="BorelConjugable", param=None,
                    c=_frac(1, q - 1))
    if family == "unipotent":
        return dict(order=q, label="BorelConjugable", param=None, c="0/1")
    if family == "split_cartan":
        return dict(order=(q - 1) ** 2, label="BorelConjugable", param=None,
                    c=_frac(1, q - 1))
    if family == "split_cartan_normalizer":
        return dict(order=2 * (q - 1) ** 2, label="Dihedral", param=q - 1,
                    c=_frac(q, 2 * (q - 1)))
    if family == "nonsplit_cartan":
        return dict(order=q * q - 1, label="BorelConjugable", param=None,
                    c=_frac(1, q + 1))
    if family == "nonsplit_cartan_normalizer":
        return dict(order=2 * (q * q - 1), label="Dihedral", param=q + 1,
                    c=_frac(q + 2, 2 * (q + 1)))
    if family == "dihedral_lift":
        # split torus when n | q-1, else the nonsplit torus
        order = 2 * n * n if (q - 1) % n == 0 else 2 * n * (q - 1)
        return dict(order=order, label="Dihedral", param=n,
                    c=_frac(n + (n % 2 == 0), 2 * n))
    if family == "quaternion_lift":
        return dict(order=8, label="Dihedral", param=2, c="3/4")
    if family == "a4_lift":
        return dict(order=24, label="A4", param=None, c="1/4")
    if family == "s4_lift_f13":
        return dict(order=24 * 12, label="S4", param=None, c="3/8")
    if family == "a5_lift_f11":
        return dict(order=60 * 10, label="A5", param=None, c="1/4")
    raise ValueError(f"unknown family {family}")


# ---- inputs (these need apcong; run them in a process that runs no case) ----

def _primitive(spec) -> int:
    for x in range(2, spec.q):
        y, k = x, 1
        while y != 1:
            y = spec.mul_i(y, x)
            k += 1
        if k == spec.q - 1:
            return x
    raise ValueError("no primitive element")


def _standard_generators(family: str, spec):
    """Generators of GL2/SL2 as in apcong.constructions, without closing."""
    from apcong.matgrp import Mat2

    z = _primitive(spec)
    if family == "gl2":
        ents = [(1, 1, 0, 1), (0, 1, 1, 0), (z, 0, 0, 1)]
    else:
        ents = [(1, 1, 0, 1), (1, 0, 1, 1), (1, z, 0, 1), (1, 0, z, 1),
                (z, 0, 0, spec.inv_i(z))]
    return [Mat2(spec, e) for e in ents]


def _family_generators(family: str, spec, n: int | None = None):
    from apcong import constructions

    if family in ("s4_lift_f13", "a5_lift_f11"):
        G = getattr(constructions, family)()
    elif family == "dihedral_lift":
        G = constructions.dihedral_lift(spec, n)
    else:
        G = getattr(constructions, family)(spec)
    return G.generators


def _conjugates(spec, gens, rng: random.Random) -> list[str]:
    """Group JSON of h g h^-1 for CONJUGATES seeded random h in GL2(F_q)."""
    from apcong.matgrp import Mat2

    out = []
    while len(out) < CONJUGATES:
        h = Mat2(spec, tuple(rng.randrange(spec.q) for _ in range(4)))
        if not h.det_i():
            continue
        hi = h.inv()
        rows = [[[list(x.coeffs) for x in row] for row in (h * g * hi).entries()]
                for g in gens]
        out.append(json.dumps({"field": spec.to_json(), "generators": rows}))
    return out


def _group_case(verb, label, family, q, spec, gens, rng, n=None, fmt=None):
    argv = [verb, "--group", "-"] + (["--format", fmt] if fmt else [])
    return {"id": f"{verb} {label}", "verb": verb, "argv": argv,
            "inputs": _conjugates(spec, gens, rng),
            "expect": expect_family(family, q, n)}


def _lattice_groups():
    from apcong.ffield import make_field

    out = []
    for q in LATTICE_QS:
        spec = make_field(*_pr(q))
        fams = ["borel", "unipotent", "split_cartan", "split_cartan_normalizer",
                "nonsplit_cartan", "nonsplit_cartan_normalizer",
                "quaternion_lift", "a4_lift"]
        if q <= 7:
            fams += ["sl2", "gl2"]
        for fam in fams:
            out.append((f"{fam}(F{q})", fam, q, spec, None))
        for n in sorted(set(_divisors(q - 1)) | set(_divisors(q + 1))):
            out.append((f"dihedral_lift(F{q},{n})", "dihedral_lift", q, spec, n))
    for q in LATTICE_LARGE_QS:
        spec = make_field(*_pr(q))
        out += [(f"{fam}(F{q})", fam, q, spec, None) for fam in LATTICE_LARGE_FAMILIES]
    out.append(("s4_lift_f13", "s4_lift_f13", 13, make_field(13), None))
    out.append(("a5_lift_f11", "a5_lift_f11", 11, make_field(11), None))
    return out


CLOSED_LOOP_GROUPS = (
    ("borel", 5, None), ("split_cartan_normalizer", 5, None), ("gl2", 5, None),
    ("a4_lift", 5, None), ("nonsplit_cartan_normalizer", 7, None),
    ("dihedral_lift", 7, 3),
)

DATA_CLI = (
    ("verify", ["verify", "--delta", "--ell", "23", "--pmax", "20000"]),
    ("verify", ["verify", "--tables", "--pmax", "10000"]),
    ("discover", ["discover", "--curve", "338d1", "--ell", "3", "--bound", "312",
                  "--pmax", "30000"]),
    ("discover", ["discover", "--delta", "--ell", "23", "--modulus", "23",
                  "--legendre", "--pmax", "10000"]),
    ("dataset", ["dataset", "--curve", "50700u1", "--ell", "13", "--pmax", "30000"]),
)


def build(workload: str, seed: int) -> list[dict]:
    from apcong.ffield import make_field

    rng = random.Random(f"apcong-bench/{workload}/{seed}")
    cases = []
    if workload == "group-scale":
        for fam, q in (("gl2", 9), ("gl2", 13), ("gl2", 17), ("sl2", 19)):
            spec = make_field(*_pr(q))
            gens = _standard_generators(fam, spec)
            cases.append(_group_case("analyze", f"{fam}(F{q})", fam, q, spec, gens,
                                     rng, fmt="json"))
    elif workload == "group-lattice":
        for field in (2, 3):
            cases.append({"id": f"oracle F{field}", "verb": "oracle",
                          "argv": ["oracle", "--field", str(field)], "inputs": [None],
                          "expect": {"subgroups": {2: 6, 3: 55}[field]}})
        for label, fam, q, spec, n in _lattice_groups():
            gens = _family_generators(fam, spec, n)
            cases.append(_group_case("classify", label, fam, q, spec, gens, rng, n))
            cases.append(_group_case("analyze", label, fam, q, spec, gens, rng, n,
                                     fmt="json"))
    elif workload == "data":
        for verb, argv in DATA_CLI:
            cases.append({"id": " ".join(argv), "verb": verb, "argv": argv,
                          "inputs": [None], "expect": {}})
        for fam, q, n in CLOSED_LOOP_GROUPS:
            spec = make_field(*_pr(q))
            gens = _family_generators(fam, spec, n)
            label = f"{fam}(F{q}{'' if n is None else f',{n}'})"
            cases.append({"id": f"closed_loop {label}", "verb": "closed_loop",
                          "argv": None, "inputs": _conjugates(spec, gens, rng),
                          "n": CLOSED_LOOP_N, "sample_seed": rng.randrange(2**31),
                          "expect": expect_family(fam, q, n)})
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return cases


# ---- answer checks (no apcong code here) ------------------------------------

def primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if flags[i]]


def _naive_ap(a: tuple[int, ...], p: int) -> int:
    """p + 1 - #E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    a1, a2, a3, a4, a6 = (x % p for x in a)
    affine = sum(1 for x in range(p) for y in range(p)
                 if (y * y + a1 * x * y + a3 * y
                     - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0)
    return p - affine


CURVE_50700U1 = (0, 1, 0, -4788, 109188)
MOD39_LINE = ("  a_p = 0 <=> p in {2, 5, 7, 8, 11, 14, 17, 19, 20, 23, 28, 29, 31, "
              "32, 34, 35, 37, 38} mod 39")
TABLE_CHECKS = 12


def _check_group(exp: dict, order: int, label: str, param, c: str) -> list[str]:
    got = dict(order=order, label=label, param=param, c=c)
    return [f"{k}: got {got[k]!r}, expected {exp[k]!r}"
            for k in ("order", "label", "param", "c") if got[k] != exp[k]]


def _check_analyze(exp: dict, out: str) -> list[str]:
    rep = json.loads(out)
    d = rep["dickson"]
    problems = _check_group(exp, rep["order"], d["label"],
                            d.get("n", d.get("subfield_q")), rep["c"])
    if rep.get("consistent") is not True:
        problems.append("report is not marked consistent")
    if not rep.get("per_class"):
        problems.append("no per-class verdicts")
    return problems


def _check_classify(exp: dict, out: str) -> list[str]:
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    if "n" in fields:
        param = int(fields["n"])
    elif "subfield" in fields:
        param = int(fields["subfield"].removeprefix("F_"))
    else:
        param = None
    return _check_group(exp, int(fields["order"]), fields["class"], param,
                        fields["c"])


def _check_data(case: dict, out: str) -> list[str]:
    argv, lines = case["argv"], out.splitlines()
    if argv[:2] == ["verify", "--delta"]:
        n = sum(1 for p in primes_upto(int(argv[-1])) if p != 23)
        want = [f"tau partition: {n} primes checked, 0 exceptions",
                "vanishing rule: a_p = 0 iff p nonsquare mod 23: holds"]
        return [] if lines == want else [f"unexpected output {lines[:2]!r}"]
    if argv[:2] == ["verify", "--tables"]:
        ok = len(lines) == TABLE_CHECKS and all(s.startswith("PASS ") for s in lines)
        return [] if ok else [f"{len(lines)} table lines, not all PASS"]
    if argv[:3] == ["discover", "--curve", "338d1"]:
        return [] if MOD39_LINE in lines else ["the 338d1 mod-39 line is missing"]
    if argv[:2] == ["discover", "--delta"]:
        n = sum(1 for p in primes_upto(int(argv[-1])) if p != 23)
        nonsq = ", ".join(str(r) for r in range(1, 23) if pow(r, 11, 23) == 22)
        want = [f"delta: a_p mod 23 vs p mod 23 ({n} samples)",
                f"  a_p = 0 <=> p in {{{nonsq}}}",
                "  (-23/p) = -1 implies a_p = 0  [iff]"]
        missing = [w for w in want if w not in lines]
        return [f"missing line {w!r}" for w in missing]
    if argv[0] == "dataset":
        good = [p for p in primes_upto(int(argv[-1])) if p not in (2, 3, 5, 13)]
        rows = [tuple(map(int, s.split(","))) for s in lines[1:]]
        problems = []
        if lines[:1] != ["p,ap_mod"] or [p for p, _ in rows] != good:
            problems.append(f"{len(rows)} samples, expected {len(good)} good primes")
        for p, a in rows:
            if p > 100:
                break
            if a != _naive_ap(CURVE_50700U1, p) % 13:
                problems.append(f"a_{p} mod 13 is {a}")
        return problems
    raise ValueError(f"no check for {argv}")


def check(case: dict, rc: int, out: str) -> list[str]:
    """Problems with one answer; an empty list means it is correct."""
    if rc != 0:
        return [f"exit status {rc}"]
    exp, verb = case["expect"], case["verb"]
    try:
        if verb == "analyze":
            return _check_analyze(exp, out)
        if verb == "classify":
            return _check_classify(exp, out)
        if verb == "oracle":
            field = case["argv"][-1]
            want = (f"checked {exp['subgroups']} subgroups of GL_2(F_{field}): "
                    "consistent\n")
            return [] if out == want else [f"unexpected output {out!r}"]
        if verb == "closed_loop":
            res = json.loads(out)
            problems = _check_group(exp, res["order"], exp["label"], exp["param"],
                                    res["predicted_zero"])
            return problems + ([] if res["ok"] else ["closed loop not ok"])
        return _check_data(case, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable answer: {exc!r}"]
