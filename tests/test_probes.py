"""The benchmark's probes wrap caresim functions by their module or class
attribute names, so renaming or deleting one of those names must fail here
in a fraction of a second, not only in the benchmark's own selftest."""

from pathlib import Path

import pytest

from caresim import engine, evolution, preset_single_run
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


# Traced rng.draws of the same runs: reusing the frozen score tables moves no draw.
DRAWS = {"classical": 2774, "css": 15668}


@pytest.mark.parametrize("model, applied, seekers, untreated, treatments", [
    ("classical", 206, 221, 115, 106),
    ("css", 167, 170, 103, 67),
])
def test_traced_counts_match_the_run_metrics(probes, model, applied, seekers, untreated,
                                             treatments):
    # The hooks read the wrapped calls' arguments and results by position
    # (``spread_infection``'s second argument is the requested count), so a
    # reordered signature must show here as counts that disagree with the
    # metrics the run itself reports.
    config = preset_single_run(model, base_seed=123)
    tracer = probes.Tracer()
    with tracer.installed():
        metrics = engine.run_batch(config).runs[0].metrics
    sums = {
        "infection.requested": config.num_infected_per_round * len(metrics),
        "infection.applied": sum(m.infections_applied for m in metrics),
        "classical.seekers": sum(m.treatments_performed + m.untreated_seekers for m in metrics),
        "classical.untreated": sum(m.untreated_seekers for m in metrics),
        "classical.treatments": sum(m.treatments_performed for m in metrics),
    }
    assert {name: tracer.count(name) for name in sums} == sums == {
        "infection.requested": 2000,
        "infection.applied": applied,
        "classical.seekers": seekers,
        "classical.untreated": untreated,
        "classical.treatments": treatments,
    }
    # Every agent is scored once a round up to the first all-latent round,
    # whose score tables the later rounds reuse, so a freeze that starts a
    # round early or late moves this count; the draws stay as they were.
    onset = next((m.round_index for m in metrics
                  if m.infections_applied == m.treatments_performed == m.untreated_seekers == 0),
                 config.num_rounds)
    assert tracer.count("evolution.fitness_evals") == (config.num_doctors + config.num_patients) * onset
    assert tracer.count("rng.draws") == DRAWS[model]
