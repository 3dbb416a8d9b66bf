import io
import json

import pytest

from apcong.cli import main
from apcong.constructions import gl2, nonsplit_cartan_normalizer, split_cartan
from apcong.eigendata import delta_coeffs, primes_upto
from apcong.ffield import make_field
from apcong.matgrp import group_to_json


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
    code, out3, _ = run(capsys, "analyze", "--group", gl2f3_path,
                        "--format", "json", "--no-crosscheck")
    assert code == 0
    assert json.loads(out3)["c"] == "3/8"


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


def test_oracle_rejects_large_fields(capsys):
    code, _, err = run(capsys, "oracle", "--field", "5")
    assert code == 1 and "error" in err


# ---- top level ----


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "classify")[0] == 1  # missing --group


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "classify" in out and "oracle" in out
