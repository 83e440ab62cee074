"""Replay every frozen CLI transcript through an executable, one subprocess
per record.

    python tests/replay_golden.py bentkit                        # installed
    PYTHONPATH=src python tests/replay_golden.py python -m bentkit

Each case of tests/test_cli_golden.py runs as `<executable> <argv>` with the
case's stdin on its real stdin, in a fresh temporary working directory,
and its exit code, stdout, stderr and any `--out` file must equal the
record.  This covers what the in-process replay cannot: the console entry
point, real stdin and stdout, and `sys.exit`.  A relative executable path
and the PYTHONPATH entries are made absolute, since the runs leave the
current directory.  Exits 1 if any record differs.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_cli_golden import CASES, CLI, _frozen_outcome, _outcome, _stdin_text


def main(executable: list[str]) -> int:
    failed = []
    if os.sep in executable[0]:
        executable = [os.path.abspath(executable[0]), *executable[1:]]
    env = dict(os.environ)
    if "PYTHONPATH" in env:
        path = env["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in path if p)
    for name, (argv, stdin_name) in sorted(CASES.items()):
        record = json.loads((CLI / f"{name}.json").read_text())
        with tempfile.TemporaryDirectory() as workdir:
            run = subprocess.run(
                [*executable, *argv],
                input=_stdin_text(stdin_name).encode(),
                capture_output=True,
                cwd=workdir,
                env=env,
            )
            got = _outcome(
                argv, run.returncode, run.stdout.decode(), run.stderr.decode(), Path(workdir)
            )
        if got != _frozen_outcome(record):
            failed.append(name)
            print(f"differs: {name}", file=sys.stderr)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} transcripts match")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: replay_golden.py EXECUTABLE [ARG ...]")
    sys.exit(main(sys.argv[1:]))
