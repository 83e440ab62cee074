"""Replay every frozen CLI transcript through an executable, one subprocess
per record.

    python tests/replay_golden.py bentkit                        # installed
    PYTHONPATH=src python tests/replay_golden.py python -m bentkit

Each case of tests/test_cli_golden.py runs as `<executable> <argv>` with the
case's stdin on its real stdin, and its exit code, stdout and stderr must
equal the record.  This covers what the in-process replay cannot: the
console entry point, real stdin and stdout, and `sys.exit`.  Exits 1 if any
record differs.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_cli_golden import CASES, CLI, _frozen, _stdin_text


def main(executable: list[str]) -> int:
    failed = []
    for name, (argv, stdin_name) in sorted(CASES.items()):
        record = json.loads((CLI / f"{name}.json").read_text())
        run = subprocess.run(
            [*executable, *argv],
            input=_stdin_text(stdin_name).encode(),
            capture_output=True,
        )
        got = {
            "exit": run.returncode,
            "stdout": _frozen(run.stdout.decode()),
            "stderr": _frozen(run.stderr.decode()),
        }
        if got != {key: record[key] for key in got}:
            failed.append(name)
            print(f"differs: {name}", file=sys.stderr)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} transcripts match")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: replay_golden.py EXECUTABLE [ARG ...]")
    sys.exit(main(sys.argv[1:]))
