"""Count the lines of code of every module of src/bentkit.

    python tests/count_lines.py

A counted line is one that is not blank and is not a comment line (does
not match ^\\s*#); docstrings count.  Prints each module's count, largest
first, then the total.
"""

import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bentkit"
_UNCOUNTED = re.compile(r"\s*(#.*)?")


def counted_lines(path: Path) -> int:
    return sum(not _UNCOUNTED.fullmatch(line) for line in path.read_text().splitlines())


def main() -> int:
    counts = {path.name: counted_lines(path) for path in sorted(SRC.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{count:6,d}  {name}")
    print(f"{sum(counts.values()):6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
