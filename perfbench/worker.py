"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py <workdir> [--trace | --setup-only]

Times `import bentkit` plus building the workload's GF2k contexts
(set-up), then runs the job list from <workdir>/inputs.json back to back
and times each job, reads this process's peak RSS, and only then gates the
outputs.  Prints one JSON object on stdout.  With --trace it installs the
span tracer before the jobs and also reports per-layer metrics.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run_cli(main, argv: list[str], stdin_text: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a traceback is a failed job, reported, not fatal
        rc = None
        err.write(traceback.format_exc())
    finally:
        dt = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:], "s": dt}


def _run_lib(bentkit, ctx, job: dict, parse_lines) -> dict:
    lines = parse_lines(bentkit, job["lines"])
    fn = getattr(bentkit, job["lib"])
    t0 = time.perf_counter()
    try:
        out, rc, err = fn(bentkit.selection(ctx, lines)), 0, ""
    except Exception:  # as for CLI jobs: record the failure and go on
        out, rc, err = None, None, traceback.format_exc()[-2000:]
    return {"rc": rc, "out": out, "err": err, "s": time.perf_counter() - t0}


def main(argv: list[str]) -> int:
    workdir = Path(argv[0])
    trace = "--trace" in argv
    spec = json.loads((workdir / "inputs.json").read_text())

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import bentkit

    contexts = [bentkit.GF2k(k, poly) for k, poly in spec["contexts"]]
    setup_s = time.perf_counter() - t0
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import bentkit.cli
    from workloads import gate, parse_lines

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(bentkit)
        tracer.install()

    outcomes = []
    io_bytes = 0
    for i, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = i
        if "lib" in job:
            outcomes.append(_run_lib(bentkit, contexts[job["ctx"]], job, parse_lines))
            continue
        stdin_text = (workdir / job["stdin"]).read_text() if job["stdin"] else ""
        o = _run_cli(bentkit.cli.main, job["argv"], stdin_text)
        io_bytes += sum(map(len, job["argv"])) + len(stdin_text) + len(o["out"])
        outcomes.append(o)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_s": setup_s, "peak_rss_kib": peak_rss_kib}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {**tracer.metrics(len(outcomes)), "cli.io.bytes": io_bytes}
        result["missing"] = sorted(tracer.missing)
        tracer.dump(workdir / "spans.json")

    problems = gate(spec, outcomes, bentkit, workdir)
    result["jobs"] = [
        {"s": o["s"], "rc": o["rc"], "problems": p, "err": o["err"] if p else ""}
        for o, p in zip(outcomes, problems)
    ]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
