"""The benchmark's probes wrap caresim functions by their module or class
attribute names, so renaming or deleting one of those names must fail here
in a fraction of a second, not only in the benchmark's own selftest."""

from pathlib import Path

import pytest

from caresim import engine, evolution
from caresim.ratings import RatingLedger

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import probes
    return probes


def test_probes_wrap_and_restore_every_patched_name(probes):
    tracer_names = [(owner, attr) for owner, attr, _ in probes.SPANNED + probes.COUNTED]
    tracer_names += [(RatingLedger, "weighted_valuation"), (evolution, "copy")]
    clock_names = [(engine, "run_round"), (engine, "init_run_state")]
    for probe, names in ((probes.Tracer(), tracer_names), (probes.Clock(), clock_names)):
        originals = [getattr(owner, attr) for owner, attr in names]
        with probe.installed():
            for (owner, attr), original in zip(names, originals):
                assert getattr(owner, attr) is not original, (owner.__name__, attr)
        for (owner, attr), original in zip(names, originals):
            assert getattr(owner, attr) is original, (owner.__name__, attr)
