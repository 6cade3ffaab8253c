"""The benchmark's workload steps pass their own output checks when run
in process through ``polarrep.cli.main``."""

import sys
from pathlib import Path

import pytest

from polarrep.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    # Imported read-only: no bytecode is written under perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    return workloads


@pytest.mark.parametrize("name", ["search", "certify", "simulate"])
def test_workload_steps_pass_their_checks(workloads, capsys, name):
    for step in workloads.passes(name, 1):
        code = main([*step.argv, "--reproducible"])
        out = capsys.readouterr().out
        assert code == 0, step.label
        assert step.check(out) is None, step.label
