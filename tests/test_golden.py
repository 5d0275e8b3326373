"""Golden output check: SHA-256 digests of the bytes the CLI writes.

A seed plus a config fixes every output byte, so a refactor that claims
to keep behaviour must leave these digests unchanged.  The digests agree
on CPython 3.10 to 3.13.  A change that alters behaviour on purpose
re-records them and says why.

Imports only the standard library and ``caresim``, so it runs with
pytest or directly::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from caresim.cli import main

SINGLE = ["--preset", "paper-single", "--seed", "123"]
REDUCED_FULL = [
    "--doctors", "100", "--patients", "1000", "--rounds", "15",
    "--infected", "200", "--repeats", "2", "--seed", "7",
]

# (case name, CLI arguments, {output file name: SHA-256 hex digest})
GOLDEN = (
    (
        "single-classical",
        ["--model", "classical", *SINGLE],
        {"metrics.csv": "0ca46318708332140ca3dda1a26fb3313683ca6639a728a0a1ae38503be3928b"},
    ),
    (
        "single-css",
        ["--model", "css", *SINGLE],
        {"metrics.csv": "84a3c217a8bc7283f47be219816d4d0a06282a9ff9a5653cb1e76a5c22f3a1c7"},
    ),
    (
        "single-css-snapshots",
        ["--model", "css", *SINGLE, "--snapshot-every", "5"],
        {
            "metrics.csv": "84a3c217a8bc7283f47be219816d4d0a06282a9ff9a5653cb1e76a5c22f3a1c7",
            "network_run000_round0005.json": "768294fafe45b98309bce5ff70a8cdd0687d0e159a70db42a54823063e744a3d",
            "network_run000_round0010.json": "372502ed7331eef8a1a2b639399713eac396c033d2b3ede74cc40505e43d0ada",
            "network_run000_round0015.json": "1df6367317999405aadc267a655cf7e15451aead500f0fd4093b6dcda5a31d48",
            "network_run000_round0020.json": "4a1c6a5d91ceb67fc843bd8dc3f1d7fbbfc9826137e03b4bf343ebc31c78450c",
        },
    ),
    (
        "reduced-full-classical",
        ["--model", "classical", *REDUCED_FULL],
        {"metrics.csv": "db9956a079c1513f169ee8828a7aa799ef458cb2902a313fa0bfab57fc29f9c4"},
    ),
    (
        "reduced-full-css",
        ["--model", "css", *REDUCED_FULL],
        {"metrics.csv": "ad25a1686bc40d26a6bf0de47bb174265a8385ac07eb954a57a37006118fd718"},
    ),
)


def run_digests(argv: list[str]) -> dict[str, str]:
    """Run the CLI into a fresh directory; return the digest of every file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        with redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", tmp])
        assert code == 0, f"caresim exited with {code}"
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(tmp).iterdir())
        }


def check(name: str, argv: list[str], expected: dict[str, str]) -> None:
    actual = run_digests(argv)
    assert actual == expected, f"{name}: output digests changed\nexpected {expected}\nactual   {actual}"


def test_single_classical():
    check(*GOLDEN[0])


def test_single_css():
    check(*GOLDEN[1])


def test_single_css_snapshots():
    check(*GOLDEN[2])


def test_reduced_full_classical():
    check(*GOLDEN[3])


def test_reduced_full_css():
    check(*GOLDEN[4])


if __name__ == "__main__":
    failed = 0
    for name, argv, expected in GOLDEN:
        try:
            check(name, argv, expected)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {exc}")
        else:
            print(f"ok   {name}")
    print(f"golden: {len(GOLDEN) - failed}/{len(GOLDEN)} ok on Python {sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
