"""Every benchmark job runs and passes its gate at toy sizes.

This pins the CLI grammar and library names the benchmark depends on.
"""

import importlib
from pathlib import Path

import pytest

import bentkit
import bentkit.cli

PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("worker")


def test_every_workload_passes_its_gate_at_toy_sizes(perfbench, tmp_path):
    workloads, worker = perfbench
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        spec = workloads.make_inputs(name, 1, workloads.TOY, workdir)
        contexts = [bentkit.GF2k(k, poly) for k, poly in spec["contexts"]]
        outcomes = []
        for job in spec["jobs"]:
            if "lib" in job:
                ctx = contexts[job["ctx"]]
                outcomes.append(
                    worker._run_lib(bentkit, ctx, job, workloads.parse_lines)
                )
            else:
                stdin = (workdir / job["stdin"]).read_text() if job["stdin"] else ""
                outcomes.append(worker._run_cli(bentkit.cli.main, job["argv"], stdin))
        problems = workloads.gate(spec, outcomes, bentkit, workdir)
        assert problems == [[] for _ in outcomes], (
            name,
            problems,
            [o["err"] for o in outcomes],
        )
