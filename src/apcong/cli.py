"""Command-line front end.

Verbs: classify, analyze, dataset, discover, verify, oracle.  All output is
deterministic for fixed inputs; JSON mode emits sorted keys.  Exit status is
0 on success, 1 on usage or input errors, 2 when a theorem-level consistency
check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import (
    TheoremConsistencyError,
    analyze_group,
    crosscheck_all_subgroups,
    density_c,
)
from .classify import ClassificationError, classify_group
from .constructions import gl2
from .discover import (
    InsufficientDataError,
    best_modulus,
    delta_partition_check,
    discover_report,
    legendre_candidates,
    vanishing_rule_check,
    verify_fixture_tables,
)
from .eigendata import (
    EllipticCurve,
    build_dataset,
    curve_fixtures,
    delta_coeffs,
    load_curve_file,
    load_form_file,
)
from .ffield import make_field
from .matgrp import ClosureGuardError, group_from_json

USAGE_ERROR, CONSISTENCY_ERROR = 1, 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # consistency failures, so force 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit((USAGE_ERROR, f"error: {message}"))


def _read_group(path: str):
    if path == "-":
        return group_from_json(json.loads(sys.stdin.read()))
    with open(path, encoding="utf-8") as fh:
        return group_from_json(json.loads(fh.read()))


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_dataset(args):
    if args.delta:
        series = delta_coeffs(args.pmax, args.ell)
        return build_dataset(series, args.ell, args.pmax, level=1, label="delta")
    if args.curve:
        fixtures = curve_fixtures()
        if args.curve not in fixtures:
            raise ValueError(
                f"unknown curve {args.curve!r}; packaged: {', '.join(sorted(fixtures))}"
            )
        return build_dataset(fixtures[args.curve], args.ell, args.pmax)
    if args.curve_file:
        curves = load_curve_file(args.curve_file)
        if args.label not in curves:
            raise ValueError(f"label {args.label!r} not in {args.curve_file}")
        return build_dataset(curves[args.label], args.ell, args.pmax)
    if args.form_file:
        forms = {rec[0]: rec for rec in load_form_file(args.form_file)}
        if args.label not in forms:
            raise ValueError(f"label {args.label!r} not in {args.form_file}")
        _, _, level, series = forms[args.label]
        return build_dataset(
            series, args.ell, args.pmax, level=level, label=args.label
        )
    raise ValueError("no data source given (--delta, --curve, --curve-file, --form-file)")


def _add_source_flags(sub) -> None:
    sub.add_argument("--delta", action="store_true",
                     help="weight-12 level-1 cusp form dataset")
    sub.add_argument("--curve", help="packaged curve label")
    sub.add_argument("--curve-file", help="JSON-lines curve file")
    sub.add_argument("--form-file", help="JSON-lines q-expansion file")
    sub.add_argument("--label", help="label inside --curve-file/--form-file")
    sub.add_argument("--ell", type=int, required=True, help="residue characteristic")
    sub.add_argument("--pmax", type=int, default=10_000, help="prime bound")


def build_parser() -> _Parser:
    top = _Parser(prog="apcong", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="projective classification of a matrix group")
    p.add_argument("--group", required=True, help="group JSON file, or - for stdin")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("analyze", help="full per-class congruence verdicts")
    p.add_argument("--group", required=True, help="group JSON file, or - for stdin")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--no-crosscheck", action="store_true",
                   help="skip the theorem consistency suite")

    p = sub.add_parser("dataset", help="emit (p, a_p mod ell) samples as CSV")
    _add_source_flags(p)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("discover", help="empirical congruence discovery")
    _add_source_flags(p)
    p.add_argument("--modulus", type=int, help="report at this fixed modulus")
    p.add_argument("--bound", type=int,
                   help="search the divisors of this bound per class")
    p.add_argument("--legendre", action="store_true",
                   help="also fit quadratic-symbol criteria")
    p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("verify", help="check the packaged congruence statements")
    p.add_argument("--delta", action="store_true",
                   help="tau partition and vanishing rule")
    p.add_argument("--tables", action="store_true",
                   help="printed tables for the packaged curves")
    p.add_argument("--ell", type=int, default=23)
    p.add_argument("--pmax", type=int, default=10_000)

    p = sub.add_parser("oracle", help="exhaustive subgroup consistency sweep")
    p.add_argument("--field", type=int, required=True, choices=(2, 3),
                   help="run over every subgroup of GL_2(F_q)")
    return top


def _run_classify(args, out) -> int:
    G = _read_group(args.group)
    cls = classify_group(G)
    c = density_c(G)
    if args.format == "json":
        _emit_json({"dickson": cls.to_json(), "order": G.order,
                    "c": f"{c.numerator}/{c.denominator}"}, out)
    else:
        out.write(f"order: {G.order}\n")
        out.write(f"class: {cls.label}\n")
        if cls.n is not None:
            out.write(f"n: {cls.n}\n")
        if cls.subfield_q is not None:
            out.write(f"subfield: F_{cls.subfield_q}\n")
        out.write(f"c: {c.numerator}/{c.denominator}\n")
    return 0


def _run_analyze(args, out) -> int:
    G = _read_group(args.group)
    rep = analyze_group(G, crosscheck=not args.no_crosscheck)
    if args.format == "json":
        _emit_json(rep.to_json(), out)
        return 0
    spec = G.spec
    out.write(f"field F_{spec.q}, order {G.order}, class {rep.dickson.label}\n")
    out.write(f"totally abelian: {rep.totally}, "
              f"c = {rep.density.numerator}/{rep.density.denominator}\n")
    out.write("x: weakly semi abelian\n")
    for xi, v in sorted(rep.per_class.items()):
        out.write(f"{xi}: {str(v.weakly).lower()} {str(v.semi).lower()} "
                  f"{str(v.abelian).lower()}\n")
    return 0


def _run_dataset(args, out) -> int:
    ds = _load_dataset(args)
    text = ds.csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.write(f"{len(ds)} samples -> {args.out}\n")
    else:
        out.write(text)
    return 0


def _run_discover(args, out) -> int:
    ds = _load_dataset(args)
    if (args.modulus is None) == (args.bound is None):
        raise ValueError("give exactly one of --modulus or --bound")
    cands = legendre_candidates(ds.level, ds.ell) if args.legendre else ()
    if args.modulus is not None:
        rep = discover_report(ds, args.modulus, cands)
        if args.format == "json":
            _emit_json(rep.to_json(), out)
        else:
            out.write(rep.table() + "\n")
        return 0
    found = {}
    for x in ds.attained():
        found[x] = best_modulus(ds, x, args.bound)
    if args.format == "json":
        _emit_json({
            "label": ds.label, "ell": ds.ell, "bound": args.bound,
            "classes": {
                str(x): (None if e is None else
                         {"modulus": e.modulus, "s_x": sorted(e.s_x)})
                for x, e in sorted(found.items())
            },
        }, out)
    else:
        out.write(f"{ds.label}: least iff modulus dividing {args.bound}\n")
        for x, e in sorted(found.items()):
            if e is None:
                out.write(f"  a_p = {x}: no iff modulus divides {args.bound}\n")
            else:
                res = ", ".join(str(r) for r in sorted(e.s_x))
                out.write(f"  a_p = {x} <=> p in {{{res}}} mod {e.modulus}\n")
    return 0


def _run_verify(args, out) -> int:
    if not args.delta and not args.tables:
        raise ValueError("give --delta and/or --tables")
    failures = 0
    if args.delta:
        if args.ell != 23:
            raise ValueError("the partition statement is specific to ell = 23")
        res = delta_partition_check(args.pmax)
        out.write(f"tau partition: {res.checked} primes checked, "
                  f"{len(res.violations)} exceptions\n")
        gm = vanishing_rule_check(res.dataset)
        out.write(f"vanishing rule: a_p = 0 iff p nonsquare mod 23: "
                  f"{'holds' if gm.holds else 'fails'}\n")
        failures += len(res.violations) + (0 if gm.holds else 1)
    if args.tables:
        checks = verify_fixture_tables(curve_fixtures(), args.pmax)
        for c in checks:
            status = "PASS" if c.ok else "FAIL"
            out.write(f"{status} {c.label}: {c.name}\n")
            failures += 0 if c.ok else 1
    if failures:
        raise TheoremConsistencyError(f"{failures} verification failures")
    return 0


def _run_oracle(args, out) -> int:
    spec = make_field(args.field, 1)
    count = crosscheck_all_subgroups(gl2(spec))
    out.write(f"checked {count} subgroups of GL_2(F_{args.field}): consistent\n")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, tuple):
            print(exc.code[1], file=sys.stderr)
            return exc.code[0]
        return 0 if not exc.code else USAGE_ERROR
    runner = {
        "classify": _run_classify,
        "analyze": _run_analyze,
        "dataset": _run_dataset,
        "discover": _run_discover,
        "verify": _run_verify,
        "oracle": _run_oracle,
    }[args.verb]
    try:
        return runner(args, sys.stdout)
    except TheoremConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return CONSISTENCY_ERROR
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            ClassificationError, ClosureGuardError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
