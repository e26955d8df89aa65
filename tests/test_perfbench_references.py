"""One round of the perfbench ``train`` and ``forge`` workloads reproduces the
outputs recorded in ``perfbench/references.json``, and one ``certify`` round
passes its own check.

The workloads are imported from ``perfbench/workloads.py`` and run as the
benchmark runs them, so a drift in a training trajectory, in the decoded
tokens or in the forged bytes, or a certification suite that fails, loses
scenarios or finds no necessity witness, fails here, not only in the
benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def checked_round(workload, reference):
    workload.setup()
    check = workload.check(workload.run_round(), reference)
    assert check.attempted > 0
    assert check.failures == []


@pytest.mark.parametrize("seed", [1, 63])
def test_train_round_matches_reference(workloads, seed):
    checked_round(workloads.TrainWorkload(seed), REFERENCES["train"][str(seed)])


def test_forge_round_matches_reference(workloads, tmp_path):
    checked_round(workloads.ForgeWorkload(1, tmp_path / "forge"), REFERENCES["forge"]["1"])


def test_certify_round_passes_its_check(workloads):
    checked_round(workloads.CertifyWorkload(1), None)
