"""The benchmark's inputs and answer checks still work against the program.

perfbench/cases.py builds its group inputs with `Mat2` and `FieldSpec`
(`Mat2.entries`, `FieldElement.coeffs`, `det_i`, `inv`, products) and feeds
them to `apcong.cli.main`, or, for the closed loop, to `group_from_json`
and `discover.closed_loop_check`; a change to those names, or to the
answers, would fail every group run of the benchmark.  The module is
loaded from its file and only read.
"""

import importlib.util
import io
import json
from pathlib import Path

import pytest

from apcong.cli import main
from apcong.discover import closed_loop_check
from apcong.matgrp import group_from_json

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


def test_closed_loop_case_passes_its_checks(cases):
    # the one benchmark case that expands an SL_2 overgroup into its
    # classes; the answer text is formed as perfbench/run.py forms it
    [case] = [c for c in cases.build("data", 1) if c["id"] == "closed_loop gl2(F5)"]
    for text in case["inputs"]:
        result = closed_loop_check(group_from_json(json.loads(text)), n=case["n"],
                                   seed=case["sample_seed"])
        out = json.dumps({"ok": result.ok, "order": result.group_order,
                          "predicted_zero": str(result.predicted_zero),
                          "modulus": result.modulus})
        assert cases.check(case, 0, out) == []
