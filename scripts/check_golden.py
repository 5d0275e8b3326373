#!/usr/bin/env python3
"""Run the golden output check under every installed CPython 3.10-3.13.

The interpreters are the pyenv builds ``$PYENV_ROOT/versions/3.1[0-3]*``
(``PYENV_ROOT`` defaults to ``~/.pyenv``), or the interpreters given on
the command line.  Each one runs ``tests/test_golden.py`` with this
checkout's ``src`` on ``PYTHONPATH``; one line is printed per
interpreter, and the exit status is non-zero if any of them fails or
none is found.  Standard library only.

    python3 scripts/check_golden.py
    python3 scripts/check_golden.py /usr/bin/python3.12
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "test_golden.py"


def pyenv_interpreters() -> list[Path]:
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    return sorted(versions.glob("3.1[0-3]*/bin/python"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("python", nargs="*", type=Path,
                        help="interpreters to check (default: pyenv 3.10-3.13)")
    interpreters = parser.parse_args().python or pyenv_interpreters()
    if not interpreters:
        print("check_golden: no interpreter found", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failed = 0
    for python in interpreters:
        proc = subprocess.run(
            [str(python), str(GOLDEN)], env=env, capture_output=True, text=True
        )
        lines = (proc.stdout + proc.stderr).strip().splitlines()
        summary = lines[-1] if lines else f"exit {proc.returncode}"
        if proc.returncode == 0:
            print(f"ok   {python}: {summary}")
            continue
        failed += 1
        print(f"FAIL {python}: {summary}")
        for line in lines[:-1]:
            print(f"     {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
