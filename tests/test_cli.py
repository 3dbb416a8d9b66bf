import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from apcong import classify, cli, eigendata, ffield, matgrp
from apcong.cli import VERBS, main, parse_args
from apcong.constructions import gl2, nonsplit_cartan_normalizer, split_cartan
from apcong.discover import verify_fixture_tables
from apcong.eigendata import ApDataset, curve_fixtures, delta_coeffs, primes_upto
from apcong.ffield import make_field
from apcong.matgrp import Mat2, group_to_json


@pytest.fixture
def gl2f3_path(tmp_path):
    path = tmp_path / "gl2f3.json"
    path.write_text(json.dumps(group_to_json(gl2(make_field(3)))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- classify ----


def test_classify_table(capsys, gl2f3_path):
    code, out, err = run(capsys, "classify", "--group", gl2f3_path)
    assert code == 0 and err == ""
    assert out == "order: 48\nclass: S4\nc: 3/8\n"


def test_classify_json_deterministic(capsys, gl2f3_path):
    code, out1, _ = run(capsys, "classify", "--group", gl2f3_path,
                        "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "classify", "--group", gl2f3_path,
                        "--format", "json")
    assert code == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["order"] == 48 and doc["c"] == "3/8"
    assert doc["dickson"]["label"] == "S4"


def test_classify_stdin(capsys, monkeypatch):
    G = nonsplit_cartan_normalizer(make_field(7))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(group_to_json(G))))
    code, out, _ = run(capsys, "classify", "--group", "-")
    assert code == 0
    assert "class: Dihedral\n" in out and "n: 8\n" in out
    assert "c: 9/16\n" in out


def test_classify_missing_file(capsys):
    code, out, err = run(capsys, "classify", "--group", "/nonexistent.json")
    assert code == 1 and "error:" in err


def test_classify_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", "--group", str(path))
    assert code == 1 and "error:" in err


F5_JSON = {"p": 5, "r": 1, "modulus": [0, 1]}


@pytest.mark.parametrize("doc,named", [
    ({"field": F5_JSON, "generators": [[[[2.7], 0], [0, 1]]]}, "[2.7]"),
    ({"field": F5_JSON, "generators": [[[True, 0], [0, 1]]]}, "True"),
    ({"field": F5_JSON, "generators": [[[1.5, 0], [0, 1]]]}, "1.5"),
    ({"field": F5_JSON, "generators": [7]}, "7"),
    ([1], "field and generators"),
    ({"generators": []}, "field and generators"),
    ({"field": dict(F5_JSON, p=5.5), "generators": []}, "field"),
    ({"field": F5_JSON, "generators": 5}, "generators 5"),
])
def test_classify_rejects_malformed_groups(capsys, monkeypatch, doc, named):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "classify", "--group", "-")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err


# ---- analyze ----


def test_analyze_table(capsys, tmp_path):
    path = tmp_path / "sc5.json"
    path.write_text(json.dumps(group_to_json(split_cartan(make_field(5)))))
    code, out, _ = run(capsys, "analyze", "--group", str(path))
    assert code == 0
    assert "field F_5, order 16, class BorelConjugable" in out
    assert "totally abelian: True, c = 1/4" in out
    for x in range(5):
        assert f"{x}: true true true" in out


def test_analyze_json_deterministic(capsys, gl2f3_path):
    code, out1, _ = run(capsys, "analyze", "--group", gl2f3_path,
                        "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "analyze", "--group", gl2f3_path,
                        "--format", "json")
    assert code == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["c"] == "3/8"
    # the theorem checks always run: there is no flag to skip them
    assert run(capsys, "analyze", "--group", gl2f3_path, "--format", "json",
               "--no-crosscheck") == (1, "", "error: analyze: unknown flag --no-crosscheck\n")
    code, out, _ = run(capsys, "analyze", "--help")
    assert code == 0 and "crosscheck" not in out


# ---- dataset ----


def test_dataset_delta_stdout(capsys):
    code, out, _ = run(capsys, "dataset", "--delta", "--ell", "23",
                       "--pmax", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,ap_mod"
    assert len(lines) == 25  # header + 24 samples (23 itself excluded)
    assert lines[1] == "2,22"  # tau(2) = -24 = -1 mod 23
    assert "5,0" in lines  # tau(5) = 4830 = 0 mod 23


def test_dataset_curve_to_file(capsys, tmp_path):
    out_path = tmp_path / "ds.csv"
    code, out, _ = run(capsys, "dataset", "--curve", "338d1", "--ell", "5",
                       "--pmax", "200", "--out", str(out_path))
    assert code == 0
    assert out.endswith(f"-> {out_path}\n")
    text = out_path.read_text()
    assert text.startswith("p,ap_mod\n3,4\n")
    assert "\n13," not in text  # bad prime skipped


def test_dataset_requires_source(capsys):
    code, _, err = run(capsys, "dataset", "--ell", "23")
    assert code == 1 and "no data source" in err


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array"),
     "error: Unable to allocate 7.28 TiB for an array\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_an_allocation_too_large_is_one_error_line(capsys, monkeypatch, exc, line):
    def too_large(*args):
        raise exc

    monkeypatch.setattr(cli, "delta_coeffs", too_large)
    assert run(capsys, "dataset", "--delta", "--ell", "23",
               "--pmax", "1000000000000") == (1, "", line)


def test_point_count_guard_fails_before_the_sieve(capsys, monkeypatch):
    def unreachable(n):
        raise AssertionError(f"sieved to {n}")

    monkeypatch.setattr(eigendata, "primes_upto", unreachable)
    assert run(capsys, "dataset", "--curve", "338d1", "--ell", "5", "--pmax",
               "30000000") == (1, "", "error: point counting guard exceeded at 1000003\n")


def tau_by_product(T):
    """tau(n) for n <= T from q prod (1 - q^k)^24, one factor at a time."""
    poly = [1] + [0] * (T - 1)  # q^0 .. q^(T-1) of the product
    for k in range(1, T):
        for _ in range(24):
            for i in range(T - 1, k - 1, -1):
                poly[i] -= poly[i - k]
    return {n: poly[n - 1] for n in range(1, T + 1)}


def test_dataset_delta_at_a_modulus_past_int64_squares(capsys):
    ell = 3_000_000_019
    code, out, err = run(capsys, "dataset", "--delta", "--ell", str(ell),
                         "--pmax", "200")
    assert code == 0 and err == ""
    tau = tau_by_product(200)
    rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
    assert rows == [(p, tau[p] % ell) for p in primes_upto(200)]


def test_verify_delta_builds_delta_once(capsys, monkeypatch):
    import apcong.cli
    import apcong.discover

    calls = []

    def counted(T, m=0):
        calls.append((T, m))
        return delta_coeffs(T, m)

    monkeypatch.setattr(apcong.cli, "delta_coeffs", counted)
    monkeypatch.setattr(apcong.discover, "delta_coeffs", counted)
    code, out, _ = run(capsys, "verify", "--delta", "--pmax", "500")
    assert code == 0 and calls == [(500, 23)]
    assert out == ("tau partition: 94 primes checked, 0 exceptions\n"
                   "vanishing rule: a_p = 0 iff p nonsquare mod 23: holds\n")


def test_dataset_unknown_curve(capsys):
    code, _, err = run(capsys, "dataset", "--curve", "11a1", "--ell", "5")
    assert code == 1 and "unknown curve" in err


def test_dataset_curve_file_and_form_file(capsys, tmp_path):
    curves = tmp_path / "c.jsonl"
    curves.write_text(json.dumps(
        {"label": "324b1", "a": [0, 0, 0, 9, -18], "conductor": 324}) + "\n")
    code, out, _ = run(capsys, "dataset", "--curve-file", str(curves),
                       "--label", "324b1", "--ell", "5", "--pmax", "50")
    assert code == 0 and out.startswith("p,ap_mod\n")

    forms = tmp_path / "f.jsonl"
    forms.write_text(json.dumps(
        {"label": "t", "weight": 12, "level": 1,
         "coeffs": [1, -24, 252, -1472, 4830]}) + "\n")
    code, out, _ = run(capsys, "dataset", "--form-file", str(forms),
                       "--label", "t", "--ell", "5", "--pmax", "5")
    assert code == 0
    assert out == "p,ap_mod\n2,1\n3,2\n"  # p = ell excluded

    code, _, err = run(capsys, "dataset", "--form-file", str(forms),
                       "--label", "missing", "--ell", "5")
    assert code == 1 and "missing" in err



@pytest.mark.parametrize("field, value", [("level", 0), ("weight", 0), ("level", -7)])
def test_dataset_rejects_nonpositive_level_and_weight(capsys, tmp_path, field, value):
    path = tmp_path / "f.jsonl"
    rec = {"label": "t1", "weight": 12, "level": 1, "coeffs": [1, -24, 252, -1472]}
    path.write_text(json.dumps(dict(rec, **{field: value})) + "\n")
    code, out, err = run(capsys, "dataset", "--form-file", str(path),
                         "--label", "t1", "--ell", "5", "--pmax", "7")
    assert code == 1 and out == ""
    assert err == f"error: '{field}' must be at least 1, got {value}\n"


def test_dataset_rejects_duplicate_form_labels(capsys, tmp_path):
    path = tmp_path / "f.jsonl"
    rec = {"label": "t1", "weight": 12, "level": 1, "coeffs": [1, -24, 252, -1472]}
    path.write_text(json.dumps(rec) + "\n" + json.dumps(dict(rec, coeffs=[1, 0, 0, 0])) + "\n")
    code, out, err = run(capsys, "dataset", "--form-file", str(path),
                         "--label", "t1", "--ell", "5", "--pmax", "7")
    assert code == 1 and out == ""
    assert err == "error: duplicate label 't1'\n"


@pytest.mark.parametrize("flag, rec", [
    ("--form-file", {"label": "t1", "weight": 2, "level": 1,
                     "coeffs": [1, 2.5, 3.7, 4, 5.2, 6, 7.9]}),
    ("--form-file", {"label": "t1", "weight": 2, "level": 1,
                     "coeffs": [1, "2", 3, 4, 5, 6, 7]}),
    ("--curve-file", {"label": "t1", "a": [0, 0, 0, 9, -18], "conductor": "324"}),
    ("--curve-file", {"label": "t1", "a": [0, 0, 0, True, -18], "conductor": 324}),
], ids=["form-float", "form-str", "curve-str-conductor", "curve-bool"])
def test_dataset_rejects_non_int_records(capsys, tmp_path, flag, rec):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    code, out, err = run(capsys, "dataset", flag, str(path),
                         "--label", "t1", "--ell", "5", "--pmax", "7")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")

# ---- discover ----


def test_discover_fixed_modulus_json(capsys):
    code, out, _ = run(capsys, "discover", "--delta", "--ell", "23",
                       "--pmax", "2000", "--modulus", "23", "--legendre",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"]["0"]["direction"] == "iff"
    assert doc["legendre_fits"] == [[-23, "iff"]]


def test_discover_bounded_sweep_table(capsys):
    code, out, _ = run(capsys, "discover", "--curve", "338d1", "--ell", "3",
                       "--pmax", "3000", "--bound", "312")
    assert code == 0
    assert "least iff modulus dividing 312" in out
    assert "a_p = 0 <=> p in {" in out and "} mod 39" in out
    assert "a_p = 1: no iff modulus divides 312" in out
    assert "a_p = 2: no iff modulus divides 312" in out


def test_discover_modulus_xor_bound(capsys):
    code, _, err = run(capsys, "discover", "--delta", "--ell", "23",
                       "--pmax", "500", "--modulus", "23", "--bound", "23")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "discover", "--delta", "--ell", "23",
                       "--pmax", "500")
    assert code == 1 and "exactly one" in err


def test_usage_errors_come_before_any_data(capsys, monkeypatch):
    # a composite --ell and a missing --modulus/--bound are rejected before
    # the series or the dataset is built
    def unreachable(*args, **kwargs):
        raise AssertionError("data built before a usage error")

    monkeypatch.setattr(cli, "delta_coeffs", unreachable)
    monkeypatch.setattr(cli, "build_dataset", unreachable)
    composite = (1, "", "error: residue characteristic 4 is not prime\n")
    assert run(capsys, "dataset", "--delta", "--ell", "4", "--pmax", "300000") == composite
    assert run(capsys, "discover", "--delta", "--ell", "4", "--pmax", "300000",
               "--modulus", "3") == composite
    neither = (1, "", "error: give exactly one of --modulus or --bound\n")
    assert run(capsys, "discover", "--delta", "--ell", "23", "--pmax", "300000") == neither
    assert run(capsys, "discover", "--curve", "338d1", "--ell", "3", "--pmax", "300000",
               "--modulus", "3", "--bound", "3") == neither


_ONE_SOURCE = "error: --label applies only to --curve-file and --form-file\n"


@pytest.mark.parametrize("argv, line", [
    (("dataset", "--delta", "--curve", "338d1", "--ell", "5"),
     "error: give exactly one data source, not --delta and --curve\n"),
    (("dataset", "--curve", "338d1", "--form-file", "f.jsonl", "--label", "t1", "--ell", "5"),
     "error: give exactly one data source, not --curve and --form-file\n"),
    (("dataset", "--curve-file", "c.jsonl", "--form-file", "f.jsonl", "--label", "t1",
      "--ell", "5"),
     "error: give exactly one data source, not --curve-file and --form-file\n"),
    (("dataset", "--curve", "338d1", "--label", "zzz", "--ell", "5"), _ONE_SOURCE),
    (("dataset", "--delta", "--label", "t1", "--ell", "23"), _ONE_SOURCE),
    (("dataset", "--label", "t1", "--ell", "23"),
     "error: no data source given (--delta, --curve, --curve-file, --form-file)\n"),
    (("dataset", "--curve-file", "c.jsonl", "--ell", "5"),
     "error: --curve-file needs --label\n"),
    (("dataset", "--form-file", "f.jsonl", "--ell", "5"), "error: --form-file needs --label\n"),
    (("discover", "--delta", "--curve", "338d1", "--ell", "23", "--modulus", "23"),
     "error: give exactly one data source, not --delta and --curve\n"),
    (("discover", "--curve", "338d1", "--label", "zzz", "--ell", "3", "--bound", "312"),
     _ONE_SOURCE),
    (("discover", "--curve", "338d1", "--ell", "3", "--bound", "312", "--legendre"),
     "error: --legendre applies only with --modulus\n"),
    (("verify", "--tables", "--ell", "5"),
     "error: --ell 5: the partition statement is specific to ell = 23, "
     "and --tables reads no --ell\n"),
    (("verify", "--delta", "--tables", "--ell", "7"),
     "error: --ell 7: the partition statement is specific to ell = 23, "
     "and --tables reads no --ell\n"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_flags_that_would_be_ignored_are_usage_errors(capsys, monkeypatch, argv, line):
    # a dataset reads exactly one source, --label only with a file source,
    # --legendre only with --modulus and verify only ell = 23; each wrong
    # combination fails before any data is read or built
    def unreachable(*args, **kwargs):
        raise AssertionError("data read before a usage error")

    for name in ("delta_coeffs", "build_dataset", "curve_fixtures", "load_curve_file",
                 "load_form_file", "legendre_candidates", "delta_partition_check",
                 "verify_fixture_tables"):
        monkeypatch.setattr(cli, name, unreachable)
    assert run(capsys, *argv) == (1, "", line)


def test_discover_modulus_far_above_the_data_is_an_error_line(capsys):
    # the unit class M - 1 > 97 holds no sample, so nothing of size M is built
    start = time.perf_counter()
    code, out, err = run(capsys, "discover", "--delta", "--ell", "23",
                         "--modulus", "1000000000000", "--pmax", "100")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_discover_bound_far_above_the_data_finishes(capsys):
    # only the divisors up to max p + 1 are tried, never sqrt(bound) of them
    start = time.perf_counter()
    code, out, _ = run(capsys, "discover", "--delta", "--ell", "23",
                       "--bound", "1000000000000000000", "--pmax", "100")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "a_p = 0: no iff modulus divides 1000000000000000000\n" in out


def test_discover_byte_identical(capsys):
    args = ("discover", "--delta", "--ell", "23", "--pmax", "1000",
            "--modulus", "23", "--format", "json")
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0 and out1 == out2


# ---- verify ----


def test_verify_delta(capsys):
    code, out, _ = run(capsys, "verify", "--delta", "--pmax", "2000")
    assert code == 0
    assert "tau partition: 302 primes checked, 0 exceptions" in out
    assert "vanishing rule: a_p = 0 iff p nonsquare mod 23: holds" in out


def test_verify_delta_without_a_nonsquare_prime_is_unverified(capsys):
    # every prime below 5 is a square mod 23
    code, out, err = run(capsys, "verify", "--delta", "--pmax", "2")
    assert code == 2
    assert "tau partition: 1 primes checked, 0 exceptions" in out
    assert ("vanishing rule: a_p = 0 iff p nonsquare mod 23: "
            "unverified (no nonsquare prime checked)\n") in out
    assert err == "consistency failure: 1 verification failures\n"


def shift_delta(monkeypatch):
    """Make verify --delta check a_p + 1 for a_p, while the partition is
    still checked on the true data."""
    real = cli.delta_partition_check

    def shifted(p_max):
        res = real(p_max)
        ds = res.dataset
        moved = ApDataset(ds.label, ds.level, 23, np.column_stack((ds.p, (ds.a + 1) % 23)))
        return dataclasses.replace(res, dataset=moved)

    monkeypatch.setattr(cli, "delta_partition_check", shifted)


def test_verify_delta_reports_a_failing_vanishing_rule(capsys, monkeypatch):
    # a_p + 1 vanishes at no nonsquare prime
    shift_delta(monkeypatch)
    code, out, err = run(capsys, "verify", "--delta", "--pmax", "500")
    assert code == 2
    assert out == ("tau partition: 94 primes checked, 0 exceptions\n"
                   "vanishing rule: a_p = 0 iff p nonsquare mod 23: fails\n")
    assert err == "consistency failure: 1 verification failures\n"


def test_verify_delta_fails_a_broken_rule_before_any_nonsquare_prime(capsys, monkeypatch):
    # p = 2 and 3 are squares mod 23 and a_2 + 1 = -23 vanishes: the rule
    # is broken, not merely unverified
    shift_delta(monkeypatch)
    code, out, err = run(capsys, "verify", "--delta", "--pmax", "4")
    assert code == 2
    assert out == ("tau partition: 2 primes checked, 0 exceptions\n"
                   "vanishing rule: a_p = 0 iff p nonsquare mod 23: fails\n")
    assert err == "consistency failure: 1 verification failures\n"


def test_verify_delta_rejects_other_ell(capsys):
    code, _, err = run(capsys, "verify", "--delta", "--ell", "5")
    assert code == 1 and "specific to ell = 23" in err


def test_verify_tables_low_bound_fails_consistency(capsys):
    # sharp attainment cannot hold with a handful of primes: exit 2
    code, out, err = run(capsys, "verify", "--tables", "--pmax", "60")
    assert code == 2
    assert "FAIL" in out and "consistency failure" in err


def test_verify_requires_a_target(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 1 and "--delta" in err


# ---- oracle ----


def test_oracle_f2(capsys):
    code, out, _ = run(capsys, "oracle", "--field", "2")
    assert code == 0
    assert out == "checked 6 subgroups of GL_2(F_2): consistent\n"


def test_oracle_f4(capsys):
    # 4 is the field F_{2^2}, not the integers mod 4
    code, out, _ = run(capsys, "oracle", "--field", "4")
    assert code == 0
    assert out == "checked 148 subgroups of GL_2(F_4): consistent\n"


def test_oracle_f5(capsys):
    code, out, _ = run(capsys, "oracle", "--field", "5")
    assert code == 0
    assert out == "checked 466 subgroups of GL_2(F_5): consistent\n"


def test_oracle_rejects_large_fields(capsys):
    for field in ("6", "8"):
        code, _, err = run(capsys, "oracle", "--field", field)
        assert code == 1 and "error" in err


def test_oracle_accepts_f7():
    # the run itself takes about 10 s, so only the parser is checked here
    assert parse_args(["oracle", "--field", "7"]).field == 7


# ---- SL_2 overgroups past the closure guard ----


def group_file(tmp_path, spec, ents):
    path = tmp_path / f"group{len(list(tmp_path.iterdir()))}.json"
    gens = [Mat2(spec, e).rows_json() for e in ents]
    path.write_text(json.dumps({"field": spec.to_json(), "generators": gens}))
    return str(path)


def gl2_sl2_files(tmp_path, q):
    spec = make_field(q)
    z = spec.primitive
    gl = [(1, 1, 0, 1), (0, 1, 1, 0), (z, 0, 0, 1)]
    sl = [(1, 1, 0, 1), (1, 0, 1, 1), (1, z, 0, 1), (1, 0, z, 1), (z, 0, 0, spec.inv_i(z))]
    return group_file(tmp_path, spec, gl), group_file(tmp_path, spec, sl)


def test_closure_guard_bounds_only_groups_without_sl2(capsys, tmp_path, monkeypatch):
    # under a guard of 10^4 classes, GL_2(F_211) (|PG| = 9 393 630) is held
    # by its determinant image and analysed; the Borel group of F_211 stores
    # its 44 310 classes in the search and is refused
    monkeypatch.setattr(matgrp, "CLOSURE_GUARD", 10 ** 4)
    spec = make_field(211)
    z = spec.primitive
    gl, _ = gl2_sl2_files(tmp_path, 211)
    code, out, err = run(capsys, "analyze", "--group", gl, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["order"] == (211 ** 2 - 1) * (211 ** 2 - 211)
    borel = group_file(tmp_path, spec, [(1, 1, 0, 1), (z, 0, 0, 1), (1, 0, 0, z)])
    code, out, err = run(capsys, "analyze", "--group", borel, "--format", "json")
    assert code == 1 and out == "" and "closure exceeded guard" in err


@pytest.mark.parametrize("q", [1009, 10007])
def test_analyze_gl2_and_sl2_past_q_1000(capsys, tmp_path, q):
    # no class is built, so the size limit is the q^4 < 2^63 of the codes
    gl, sl = gl2_sl2_files(tmp_path, q)
    for path, label, order in ((gl, "PGL2", (q * q - 1) * (q * q - q)),
                               (sl, "PSL2", q * (q * q - 1))):
        code, out, err = run(capsys, "analyze", "--group", path, "--format", "json")
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert rep["order"] == order and rep["consistent"]
        assert rep["dickson"] == {"label": label, "subfield_q": q,
                                  "all_applicable": [f"{label}({q})"]}
        assert len(rep["per_class"]) == q


def test_large_image_paths_build_no_class_and_no_extension(capsys, tmp_path, monkeypatch):
    # analyze and classify of GL_2(F_17) and SL_2(F_19) read closed forms
    # only: no det^-1(D) classes, so no full search, and no F_{q^2}
    calls = []

    def spy(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            # the closure of an input group is expected; a full search is not
            if name != "_close" or kwargs.get("full"):
                calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(matgrp, "_close")
    for module in (ffield, classify):
        spy(module, "quadratic_extension")
    paths = [gl2_sl2_files(tmp_path, 17)[0], gl2_sl2_files(tmp_path, 19)[1]]
    for path in paths:
        for argv in (["analyze", "--group", path, "--format", "json"],
                     ["classify", "--group", path]):
            code, out, err = run(capsys, *argv)
            assert code == 0 and out and err == ""
    assert calls == []


# ---- top level ----


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "classify")[0] == 1  # missing --group


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "classify" in out and "oracle" in out


# ---- parsing ----

# the attributes argparse gave for each command line before the CLI moved to
# one flag table: every README command line, each verb's defaults, the
# --flag=value form and a repeated flag (the last one wins)
_DATASET_NONE = dict(curve=None, curve_file=None, delta=False, form_file=None,
                     label=None, out=None, pmax=10000)
_DISCOVER_NONE = dict(bound=None, curve=None, curve_file=None, delta=False,
                      form_file=None, format="table", label=None, legendre=False,
                      modulus=None, pmax=10000)

PARSED = [
    ("classify --group gl2f3.json",
     dict(verb="classify", group="gl2f3.json", format="table")),
    ("analyze --group gl2f3.json --format json",
     dict(verb="analyze", group="gl2f3.json", format="json")),
    ("dataset --delta --ell 23 --pmax 10000",
     dict(_DATASET_NONE, verb="dataset", delta=True, ell=23)),
    ("dataset --curve 338d1 --ell 5 --pmax 10000 --out ds.csv",
     dict(_DATASET_NONE, verb="dataset", curve="338d1", ell=5, out="ds.csv")),
    ("dataset --form-file forms.jsonl --label t1 --ell 5 --pmax 7",
     dict(_DATASET_NONE, verb="dataset", form_file="forms.jsonl", label="t1",
          ell=5, pmax=7)),
    ("discover --delta --ell 23 --modulus 23 --legendre",
     dict(_DISCOVER_NONE, verb="discover", delta=True, ell=23, modulus=23,
          legendre=True)),
    ("discover --curve 338d1 --ell 3 --bound 312",
     dict(_DISCOVER_NONE, verb="discover", curve="338d1", ell=3, bound=312)),
    ("verify --delta --ell 23 --pmax 10000",
     dict(verb="verify", delta=True, tables=False, ell=23, pmax=10000)),
    ("verify --tables",
     dict(verb="verify", delta=False, tables=True, ell=23, pmax=10000)),
    ("oracle --field 3", dict(verb="oracle", field=3)),
    ("analyze --group -",
     dict(verb="analyze", group="-", format="table")),
    ("dataset --ell 5", dict(_DATASET_NONE, verb="dataset", ell=5)),
    ("discover --ell 5", dict(_DISCOVER_NONE, verb="discover", ell=5)),
    ("verify", dict(verb="verify", delta=False, tables=False, ell=23, pmax=10000)),
    ("oracle --field 2", dict(verb="oracle", field=2)),
    ("dataset --curve-file c.jsonl --label 324b1 --ell=5 --pmax 100 --pmax=200",
     dict(_DATASET_NONE, verb="dataset", curve_file="c.jsonl", label="324b1",
          ell=5, pmax=200)),
    ("discover --curve=338d1 --legendre --ell 5 --format table --format=json",
     dict(_DISCOVER_NONE, verb="discover", curve="338d1", legendre=True, ell=5,
          format="json")),
]


@pytest.mark.parametrize("line, attrs", PARSED, ids=[line for line, _ in PARSED])
def test_parse_matches_the_argparse_namespace(line, attrs):
    assert vars(parse_args(line.split())) == attrs


@pytest.mark.parametrize("argv, named", [
    ([], "no verb"),
    (["frobnicate"], "'frobnicate'"),
    (["--ell=5"], "'--ell=5'"),
    (["classify", "--pmax", "5"], "classify: unknown flag --pmax"),
    (["classify", "--group", "-", "--ell=5"], "classify: unknown flag --ell"),
    (["dataset", "--delta", "--ell", "23", "--pm", "100"], "unknown flag --pm"),
    (["classify", "--group", "-", "extra"], "classify: unexpected argument 'extra'"),
    (["dataset", "--delta", "--ell"], "dataset: --ell needs a value"),
    (["dataset", "--curve", "--ell", "5"], "dataset: --curve needs a value"),
    (["verify", "--delta=yes"], "verify: --delta takes no value"),
    (["dataset", "--delta", "--ell", "x"], "dataset: --ell takes an int, got 'x'"),
    (["dataset", "--delta", "--ell=5.0"], "--ell takes an int"),
    (["oracle", "--field", "6"], "--field must be one of 2, 3, 4, 5"),
    (["classify", "--group", "-", "--format", "xml"], "--format must be one of"),
    (["classify"], "classify: --group is required"),
    (["dataset", "--delta", "--pmax", "50"], "dataset: --ell is required"),
    (["oracle"], "oracle: --field is required"),
    (["dataset", "--curve", "338d1", "--ell", "5", "--pmax", "-3"],
     "dataset: --pmax must be at least 2, got -3"),
    (["verify", "--tables", "--pmax", "1"], "verify: --pmax must be at least 2"),
    (["discover", "--curve", "338d1", "--ell", "5", "--bound", "0"],
     "discover: --bound must be at least 1, got 0"),
    (["discover", "--curve", "338d1", "--ell", "5", "--bound", "-12"],
     "discover: --bound must be at least 1, got -12"),
    (["discover", "--delta", "--ell", "23", "--modulus=0"],
     "discover: --modulus must be at least 1, got 0"),
    # -3 is read as the value of --ell, not as a flag, and is below its bound
    (["discover", "--delta", "--ell", "-3", "--modulus", "23", "--format", "json"],
     "discover: --ell must be at least 2, got -3"),
    (["dataset", "--delta", "--ell", "-3", "--pmax", "20"],
     "dataset: --ell must be at least 2, got -3"),
    (["verify", "--delta", "--ell", "1"], "verify: --ell must be at least 2, got 1"),
])
def test_usage_error_is_one_line_on_stderr(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("argv", [
    ["dataset", "--curve", "338d1", "--ell", "5", "--pmax", "2"],
    ["discover", "--curve", "338d1", "--ell", "5", "--pmax", "100", "--bound", "1"],
    ["discover", "--curve", "338d1", "--ell", "5", "--pmax", "100", "--modulus", "1"],
])
def test_int_flags_accept_their_minimum(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out


@pytest.mark.parametrize("verb", list(VERBS))
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_verb_help_lists_its_flags(capsys, verb, flag):
    code, out, err = run(capsys, verb, flag)
    assert code == 0 and err == ""
    assert out.startswith(f"usage: apcong {verb} ")
    for name in VERBS[verb].flags:
        assert f"  {name}" in out
    others = {name for v in VERBS.values() for name in v.flags} - set(VERBS[verb].flags)
    assert not any(f"  {name} " in out for name in others)


def test_top_level_help_lists_every_verb(capsys):
    code, out, err = run(capsys, "-h")
    assert code == 0 and err == ""
    for verb, spec in VERBS.items():
        assert f"  {verb}" in out and spec.help in out


def test_verify_tables_without_samples_is_not_a_pass(capsys):
    checks = verify_fixture_tables(curve_fixtures(), p_max=2)
    assert checks and all(not c.ok and c.detail == "no samples" for c in checks)
    # 3 is the only good prime of 338d1 below 4, and the mod-3 dataset drops it
    by_name = {c.name: c for c in verify_fixture_tables(curve_fixtures(), p_max=3)}
    assert by_name["disc-symbol forces even a_p"].ok
    assert not by_name["mod-3 vanishing iff p mod 39"].ok
    assert by_name["mod-3 vanishing iff p mod 39"].detail == "no samples"
    # too few primes for the counterexample: failed, without the detail of a pass
    converse = by_name["converse fails at p = 1, 9 mod 20"]
    assert not converse.ok and converse.detail == ""
    code, out, err = run(capsys, "verify", "--tables", "--pmax", "2")
    assert code == 2 and "PASS" not in out
    assert out.count("FAIL") == len(checks)
    assert err == f"consistency failure: {len(checks)} verification failures\n"


def test_cli_imports_no_argparse():
    # pytest itself imports argparse, so this needs a fresh interpreter
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "import apcong.cli\n"
            "rc = apcong.cli.main(['oracle', '--field', '2'])\n"
            "loaded = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
            "print(rc, loaded)\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "checked 6 subgroups of GL_2(F_2): consistent\n0 []\n"
