"""The benchmark's inputs and answer checks still work against the program.

perfbench/cases.py builds its group inputs with `Mat2` and `FieldSpec`
(`Mat2.entries`, `FieldElement.coeffs`, `det_i`, `inv`, products) and feeds
them to `apcong.cli.main`; a change to those names, or to the answers,
would fail every group run of the benchmark.  The module is loaded from its
file and only read.
"""

import importlib.util
import io
from pathlib import Path

import pytest

from apcong.cli import main

CASES_PY = Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"


@pytest.fixture(scope="module")
def cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", CASES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_builds(cases):
    for workload in cases.WORKLOADS:
        built = cases.build(workload, 1)
        assert built and all(case["inputs"] for case in built), workload


@pytest.mark.parametrize("workload, case_id", [
    ("group-lattice", "analyze sl2(F5)"),
    ("group-lattice", "analyze gl2(F5)"),
    ("group-scale", "analyze gl2(F9)"),
    ("group-scale", "analyze gl2(F17)"),
    ("group-scale", "analyze sl2(F19)"),
])
def test_group_cases_pass_their_checks(cases, workload, case_id, capsys, monkeypatch):
    [case] = [c for c in cases.build(workload, 1) if c["id"] == case_id]
    for text in case["inputs"]:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        rc = main(case["argv"])
        out = capsys.readouterr().out
        assert cases.check(case, rc, out) == []
