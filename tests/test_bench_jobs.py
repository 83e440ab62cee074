"""Every benchmark job runs and passes its gate at toy sizes, and the
reference layer the gate and the tests share imports no bentkit.

This pins the CLI grammar and library names the benchmark depends on.
"""

import importlib
import os
import subprocess
import sys

import pytest

import bentkit
import bentkit.cli
import oracles


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(oracles.PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("worker")


def test_the_reference_layer_imports_no_bentkit():
    # a fresh interpreter on this one's import path (bentkit importable), so
    # only what the two modules import is counted
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys; import oracles, reference; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'bentkit'))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert loaded == "[]\n"


def test_every_workload_passes_its_gate_at_toy_sizes(perfbench, tmp_path):
    workloads, worker = perfbench
    assert workloads.ref is oracles.reference  # one module object, not a second load
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
