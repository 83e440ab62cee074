"""The bentkit benchmark: seeded CLI workloads, gated outputs, traced layers.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; `--workload all` runs every workload
in turn.  Each repetition of a workload's job list runs in a fresh
interpreter (perfbench/worker.py), one at a time: a closed loop with one
client.  Repetitions go on while the next one fits in --seconds (at least
two).

--trace 0 reports the end-to-end metrics: the median job-list wall time,
the median set-up time and the median peak RSS over the repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; ops_failed_frac is failed / attempted.  Lines before it
give every metric by name with its unit, the environment and the SHA-256 of
the inputs.  Intermediate files go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import FULL, WORKLOADS, Sizes, make_inputs, write_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

BUDGET_S = 170  # a run must end within 180 s, whatever the program does
MIN_REPS = 2
MIN_SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith(".ops_computed"):
        return "ops"
    if name.endswith((".per_request", ".spot_ratio", ".overhead_frac")):
        return "ratio"
    return "count"


def environment() -> dict:
    env = {
        "git_sha": None,
        "git_dirty": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
    if (ROOT / ".git").exists():
        git = ["git", "--no-optional-locks", "-C", str(ROOT)]
        try:
            env["git_sha"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True,
            ).stdout
            env["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def _worker(workdir: Path, flags: list[str], deadline: float) -> dict | None:
    """Run one worker; None if it crashed, timed out or printed no result."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir), *flags]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"# worker {flags} timed out", file=sys.stderr)
        return None
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        print(f"# worker {flags} failed: {exc}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    sizes: Sizes = FULL, edit_spec=None,
) -> dict:
    """One benchmark run; returns the result line's object plus details.

    `edit_spec`, if given, may change the generated spec (the smoke test
    uses it to plant a wrong expected value) before any job runs.
    """
    deadline = time.monotonic() + BUDGET_S
    env = environment()
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    spec = make_inputs(workload, seed, sizes, workdir)
    if edit_spec is not None:
        edit_spec(spec)
        write_spec(workdir, spec)

    # Warm-up, not measured: byte-compiles bentkit and fills the page cache,
    # which users pay once, not on every run.
    _worker(workdir, ["--setup-only"], deadline)

    # Repeat while the next repetition (a pair when tracing) fits in --seconds.
    step = 2 if trace else 1
    reps: list[tuple[bool, dict | None]] = []
    took: list[float] = []
    started = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.monotonic()
        reps.append((traced, _worker(workdir, ["--trace"] if traced else [], deadline)))
        took.append(time.monotonic() - t0)
        now = time.monotonic()
        if now + max(took) > deadline:
            break
        if len(reps) >= MIN_REPS and len(reps) % step == 0:
            if now - started + sum(took[-step:]) > seconds:
                break

    njobs = len(spec["jobs"])
    attempted = njobs * len(reps)
    failed = 0
    failures = []
    for i, (_, res) in enumerate(reps):
        if res is None:
            failed += njobs
            failures.append(f"repetition {i}: worker gave no result")
            continue
        for j, job in enumerate(res["jobs"]):
            if job["problems"]:
                failed += 1
                failures.append(f"repetition {i} job {j}: {'; '.join(job['problems'])} {job['err']}")

    plain = [r for t, r in reps if r is not None and not t]
    walls = [sum(j["s"] for j in r["jobs"]) for r in plain]
    samples: dict[str, list[float]] = {"wall_s": walls}
    if trace:
        traced = [r for t, r in reps if r is not None and t]
        traced_walls = [sum(j["s"] for j in r["jobs"]) for r in traced]
        for name in traced[0]["layers"] if traced else []:
            samples[name] = [r["layers"][name] for r in traced]
        if walls and traced_walls:
            samples["trace.overhead_frac"] = [
                statistics.median(traced_walls) / statistics.median(walls) - 1
            ]
        missing = sorted({m for r in traced for m in r.get("missing", [])})
        if missing:
            print(f"# not traced (absent from bentkit): {', '.join(missing)}", file=sys.stderr)
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() + 5 < deadline:
            res = _worker(workdir, ["--setup-only"], deadline)
            if res is None:
                break
            setups.append(res["setup_s"])
        samples["setup_s"] = setups
        samples["peak_rss_mb"] = [r["peak_rss_kib"] / 1024 for r in plain]

    metrics = {}
    for name, values in samples.items():
        if trace and name == "wall_s":
            continue
        unit = END_TO_END_UNITS.get(name) or layer_unit(name)
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}

    result = {
        "correct": failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "inputs_sha256": spec["inputs_sha256"],
        "env": env,
        "repetitions": [{"traced": t, "result": r} for t, r in reps],
        "failures": failures,
        "samples": samples,
    }
    (workdir / "result.json").write_text(json.dumps({**details, "result": result}))
    return {**result, "details": details}


def report(run: dict) -> None:
    """Print the human-readable lines of one run."""
    d = run["details"]
    print(f"# {d['workload']} seed={d['seed']} trace={d['trace']} repetitions={len(d['repetitions'])}")
    print(f"# env {json.dumps(d['env'], sort_keys=True)}")
    print(f"# inputs sha256 {d['inputs_sha256']}")
    for failure in d["failures"]:
        print(f"# FAILED {failure}")
    for name, m in run["metrics"].items():
        print(f"{d['workload']} {name} {m['value']:.6g} {m['unit']} ({_spread(d['samples'][name])})")
    frac = run["failed"] / run["attempted"]
    print(f"{d['workload']} ops_failed_frac {frac:.6g} ratio ({run['failed']}/{run['attempted']})")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "bentkit" / "__init__.py").is_file():
        print(f"perfbench: no bentkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        runs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(runs[name])
    if len(runs) == 1:
        (run,) = runs.values()
        metrics = run["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in runs.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
