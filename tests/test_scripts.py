import platform
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_run_paper_experiments_writes_both_metrics_files(tmp_path):
    done = run_script("run_paper_experiments.py", "--repeats", "1", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "metrics_classical.csv", "metrics_css.csv",
    ]
    assert "doctor_fitness" in done.stdout


def test_export_network_evolution_writes_one_file_per_snapshot(tmp_path):
    done = run_script("export_network_evolution.py", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"network_round{r:04d}.json" for r in (5, 10, 15, 20)
    ]
    assert done.stdout.startswith("4 snapshots from 20 rounds")


@pytest.mark.parametrize("name, args, reason", [
    ("export_network_evolution.py", ["--every", "-1"], "snapshot_every must be non-negative"),
    ("export_network_evolution.py", ["--seed", "-1"], "base_seed must be a non-negative"),
    ("run_paper_experiments.py", ["--repeats", "0"], "num_repeats must be at least 1"),
    ("run_paper_experiments.py", ["--seed", "-1"], "base_seed must be a non-negative"),
])
def test_script_reports_bad_config_as_usage_error(tmp_path, name, args, reason):
    out = tmp_path / "out"
    done = run_script(name, *args, "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.startswith(f"{name}: invalid configuration: {reason}")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    assert not out.exists()


def test_golden_holds_on_every_other_local_interpreter():
    # Float sums can round differently between CPython versions, and this
    # suite runs on one of them; the golden check must hold on the others.
    found = runpy.run_path(str(SCRIPTS / "check_golden.py"))["pyenv_interpreters"]()
    others = [python for python in found if python.parent.parent.name != platform.python_version()]
    if not others:
        pytest.skip("no other pyenv CPython 3.10-3.13 is installed")
    done = run_script("check_golden.py", *map(str, others))
    assert done.returncode == 0, done.stdout + done.stderr
    assert [line[:5] for line in done.stdout.splitlines()] == ["ok   "] * len(others)
