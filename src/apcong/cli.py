"""Command-line front end.

Verbs: classify, analyze, dataset, discover, verify, oracle.  All output is
deterministic for fixed inputs; JSON mode emits sorted keys.  Exit status is
0 on success, 1 on usage or input errors (an input too large to allocate
among them), 2 when a theorem-level consistency check fails.

The command line is `apcong <verb> [flags]`, read against one table,
`VERBS`.  A flag is written `--flag value` or `--flag=value`, in full: a
prefix such as `--pm` is an unknown flag.  When a flag repeats, the last
value wins.  Int flags with a lower bound reject smaller values: `--ell`
and `--pmax` at least 2, `--bound` and `--modulus` at least 1.
`apcong --help` lists the verbs and `apcong <verb> --help` the flags of one
verb, on stdout with exit 0.  Every usage error prints one `error: ...`
line on stderr naming the verb or flag and exits 1; so does a flag that
would be accepted and not read (a second data source, `--label` without
a file source, `--legendre` without `--modulus`, `verify --ell` other
than 23), before any data is read.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
    check_statement,
    delta_partition_check,
    discover_report,
    legendre_candidates,
    vanishing_statement,
    verify_fixture_tables,
)
from .eigendata import (
    build_dataset,
    check_ell,
    curve_fixtures,
    delta_coeffs,
    load_curve_file,
    load_form_file,
)
from .ffield import factorize, make_field
from .matgrp import ClosureGuardError, group_from_json

USAGE_ERROR, CONSISTENCY_ERROR = 1, 2


def _read_group(path: str):
    if path == "-":
        return group_from_json(json.loads(sys.stdin.read()))
    with open(path, encoding="utf-8") as fh:
        return group_from_json(json.loads(fh.read()))


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_dataset(args):
    """The dataset of the one source given.  --label names the record of a
    file source, which needs it, and no other source takes it; a wrong
    combination is refused before any data is read."""
    sources = {"--delta": args.delta, "--curve": args.curve,
               "--curve-file": args.curve_file, "--form-file": args.form_file}
    given = [name for name, value in sources.items() if value not in (False, None)]
    if not given:
        raise ValueError("no data source given (--delta, --curve, --curve-file, --form-file)")
    if len(given) > 1:
        raise ValueError(f"give exactly one data source, not {' and '.join(given)}")
    if given[0].endswith("-file") != (args.label is not None):
        raise ValueError(f"{given[0]} needs --label" if args.label is None else
                         "--label applies only to --curve-file and --form-file")
    if args.delta:
        check_ell(args.ell)  # before the series, the costly part
        source = delta_coeffs(args.pmax, args.ell)
    elif args.curve is not None:
        fixtures = curve_fixtures()
        if args.curve not in fixtures:
            raise ValueError(
                f"unknown curve {args.curve!r}; packaged: {', '.join(sorted(fixtures))}"
            )
        source = fixtures[args.curve]
    else:
        path = sources[given[0]]
        load = load_curve_file if given[0] == "--curve-file" else load_form_file
        records = load(path)
        if args.label not in records:
            raise ValueError(f"label {args.label!r} not in {path}")
        source = records[args.label]
    return build_dataset(source, args.ell, args.pmax)


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
    rep = analyze_group(G)
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
    if (args.modulus is None) == (args.bound is None):
        raise ValueError("give exactly one of --modulus or --bound")
    if args.legendre and args.modulus is None:
        raise ValueError("--legendre applies only with --modulus")
    ds = _load_dataset(args)
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
    if args.ell != 23:
        # --tables checks each statement at its own ell
        raise ValueError(f"--ell {args.ell}: the partition statement is specific "
                         "to ell = 23, and --tables reads no --ell")
    failures = 0
    if args.delta:
        res = delta_partition_check(args.pmax)
        out.write(f"tau partition: {res.checked} primes checked, "
                  f"{len(res.violations)} exceptions\n")
        c = check_statement(vanishing_statement("delta", 23), res.dataset)
        verdict = ("holds" if c.ok else "fails" if c.violations
                   else "unverified (no nonsquare prime checked)")
        out.write(f"vanishing rule: a_p = 0 iff p nonsquare mod 23: {verdict}\n")
        failures += len(res.violations) + (verdict != "holds")
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
    (p, r), = factorize(args.field).items()  # each choice is a prime power
    count = crosscheck_all_subgroups(gl2(make_field(p, r)))
    out.write(f"checked {count} subgroups of GL_2(F_{args.field}): consistent\n")
    return 0


class Flag(NamedTuple):
    """One flag of a verb.

    `kind` is bool (a switch that takes no value), int, str, or a tuple of
    the allowed values (ints or strs); `default` is the value when the flag
    is absent, or REQUIRED; `minimum` bounds an int from below.
    """

    kind: object
    default: object
    help: str
    minimum: int | None = None


class Verb(NamedTuple):
    run: Callable
    help: str
    flags: dict[str, Flag]


REQUIRED = object()

_GROUP = Flag(str, REQUIRED, "group JSON file, or - for stdin")
_FORMAT = Flag(("json", "table"), "table", "output format")
_PMAX = Flag(int, 10_000, "prime bound", minimum=2)
_SOURCE = {
    "--delta": Flag(bool, False, "weight-12 level-1 cusp form dataset"),
    "--curve": Flag(str, None, "packaged curve label"),
    "--curve-file": Flag(str, None, "JSON-lines curve file"),
    "--form-file": Flag(str, None, "JSON-lines q-expansion file"),
    "--label": Flag(str, None, "label inside --curve-file/--form-file"),
    "--ell": Flag(int, REQUIRED, "residue characteristic", minimum=2),
    "--pmax": _PMAX,
}

# the whole command line: each verb, its runner, its help and its flags; a
# flag --foo-bar is read into the attribute foo_bar
VERBS = {
    "classify": Verb(_run_classify, "projective classification of a matrix group", {
        "--group": _GROUP,
        "--format": _FORMAT,
    }),
    "analyze": Verb(_run_analyze, "full per-class congruence verdicts", {
        "--group": _GROUP,
        "--format": _FORMAT,
    }),
    "dataset": Verb(_run_dataset, "emit (p, a_p mod ell) samples as CSV", {
        **_SOURCE,
        "--out": Flag(str, None, "output path (default stdout)"),
    }),
    "discover": Verb(_run_discover, "empirical congruence discovery", {
        **_SOURCE,
        "--modulus": Flag(int, None, "report at this fixed modulus", minimum=1),
        "--bound": Flag(int, None, "search the divisors of this bound per class",
                        minimum=1),
        "--legendre": Flag(bool, False, "also fit quadratic-symbol criteria"),
        "--format": _FORMAT,
    }),
    "verify": Verb(_run_verify, "check the packaged congruence statements", {
        "--delta": Flag(bool, False, "tau partition and vanishing rule"),
        "--tables": Flag(bool, False, "printed tables for the packaged curves"),
        "--ell": Flag(int, 23, "residue characteristic", minimum=2),
        "--pmax": _PMAX,
    }),
    "oracle": Verb(_run_oracle, "exhaustive subgroup consistency sweep", {
        "--field": Flag((2, 3, 4, 5, 7), REQUIRED,
                        "run over every subgroup of GL_2(F_q)"),
    }),
}

_HELP_FLAGS = ("-h", "--help")


class _HelpRequest(Exception):
    """-h/--help was given; the message is the help text for stdout."""


def _help_text(verb: str | None) -> str:
    if verb is None:
        width = max(map(len, VERBS))
        rows = [f"  {name:<{width}}  {v.help}" for name, v in VERBS.items()]
        return ("usage: apcong <verb> [flags]\n\n"
                "Congruence structure of Frobenius traces for finite subgroups "
                "of GL2.\n\nverbs:\n" + "\n".join(rows) +
                "\n\nA flag is --flag value or --flag=value.\n"
                "apcong <verb> --help lists the flags of one verb.\n")
    heads, notes = [], []
    for name, flag in VERBS[verb].flags.items():
        kind = flag.kind
        if isinstance(kind, tuple):
            heads.append(f"{name} {'|'.join(map(str, kind))}")
        else:
            heads.append(name + {bool: "", int: " INT", str: " TEXT"}[kind])
        extra = []
        if flag.default is REQUIRED:
            extra.append("required")
        elif kind is not bool and flag.default is not None:
            extra.append(f"default {flag.default}")
        if flag.minimum is not None:
            extra.append(f"at least {flag.minimum}")
        notes.append(flag.help + (f" ({', '.join(extra)})" if extra else ""))
    width = max(map(len, heads))
    rows = [f"  {h:<{width}}  {n}" for h, n in zip(heads, notes)]
    return (f"usage: apcong {verb} [flags]\n\n{VERBS[verb].help}\n\nflags:\n"
            + "\n".join(rows) + "\n")


def _flag_value(verb: str, name: str, flag: Flag, text: str):
    choices = flag.kind if isinstance(flag.kind, tuple) else None
    value = text
    if (type(choices[0]) if choices else flag.kind) is int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{verb}: {name} takes an int, got {text!r}") from None
    if choices and value not in choices:
        raise ValueError(f"{verb}: {name} must be one of "
                         f"{', '.join(map(str, choices))}, got {text!r}")
    if flag.minimum is not None and value < flag.minimum:
        raise ValueError(f"{verb}: {name} must be at least {flag.minimum}, got {value}")
    return value


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read `<verb> [flags]` against VERBS into a namespace holding `verb`
    and one attribute per flag of that verb.

    Raises ValueError naming the verb or flag on a usage error, and
    _HelpRequest for -h/--help.
    """
    if not argv:
        raise ValueError(f"no verb given; choose from {', '.join(VERBS)}")
    verb, tokens = argv[0], argv[1:]
    if verb in _HELP_FLAGS:
        raise _HelpRequest(_help_text(None))
    if verb not in VERBS:
        raise ValueError(f"unknown verb {verb!r}; choose from {', '.join(VERBS)}")
    flags = VERBS[verb].flags
    given = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token in _HELP_FLAGS:
            raise _HelpRequest(_help_text(verb))
        if not token.startswith("-"):
            raise ValueError(f"{verb}: unexpected argument {token!r}")
        name, eq, text = token.partition("=")
        flag = flags.get(name)
        if flag is None:
            raise ValueError(f"{verb}: unknown flag {name}")
        if flag.kind is bool:
            if eq:
                raise ValueError(f"{verb}: {name} takes no value")
            given[name] = True
            continue
        if not eq:
            # a value may be "-" (stdin) or a negative int, never a flag
            if i == len(tokens) or tokens[i].startswith("--") or tokens[i] == "-h":
                raise ValueError(f"{verb}: {name} needs a value")
            text = tokens[i]
            i += 1
        given[name] = _flag_value(verb, name, flag, text)
    args = SimpleNamespace(verb=verb)
    for name, flag in flags.items():
        if name in given:
            value = given[name]
        elif flag.default is REQUIRED:
            raise ValueError(f"{verb}: {name} is required")
        else:
            value = flag.default
        setattr(args, name[2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return VERBS[args.verb].run(args, sys.stdout)
    except _HelpRequest as exc:
        sys.stdout.write(str(exc))
        return 0
    except TheoremConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return CONSISTENCY_ERROR
    except (ValueError, KeyError, OSError, json.JSONDecodeError, MemoryError,
            ClassificationError, ClosureGuardError, InsufficientDataError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
