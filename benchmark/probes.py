"""Timers and counters wrapped around caresim's public functions from outside.

Nothing under ``src/`` changes.  Each wrapper replaces the name that the
caller actually looks up at call time:

* the engine binds most helpers at import (``from .evolution import
  evolve_population``), so those are patched on ``caresim.engine``;
* ``classical`` and ``cognitive`` functions are reached through module
  attributes (``classical.choose_doctor``), so they are patched on their
  modules;
* the CLI imports ``run_batch`` and the exporters by name, so those are
  patched on ``caresim.cli``;
* ``RngStream`` and ``RatingLedger`` methods are patched on the classes;
* the elite copy goes through ``caresim.evolution.copy.deepcopy``, so the
  ``copy`` name inside ``caresim.evolution`` is replaced.

Every wrapper is restored when the ``with`` block ends.  No wrapper draws
from the run's RNG or touches simulation state, so traced and untraced
runs write the same bytes.

``Clock`` is the untraced probe: it times only ``run_round`` and
``init_run_state``.  ``Tracer`` records a span (name, start, end, parent)
at each layer boundary and counts judge, ledger, rng, fitness and
variation calls without spanning them.
"""

from __future__ import annotations

import time
import types
from contextlib import contextmanager
from pathlib import Path

from caresim import classical, cli, cognitive, engine, evolution
from caresim.ratings import RatingLedger
from caresim.rng import RngStream

perf = time.perf_counter


@contextmanager
def _patched(replacements):
    """Install ``(owner, name, wrapper_factory)`` replacements; restore on exit."""
    saved = []
    try:
        for owner, name, factory in replacements:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, factory(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _qualified(owner, attr: str) -> str:
    if isinstance(owner, types.ModuleType):
        return f"{owner.__name__}.{attr}"
    return f"{owner.__module__}.{owner.__name__}.{attr}"


class Clock:
    """Per-call durations of ``engine.run_round`` and ``engine.init_run_state``."""

    def __init__(self):
        self.round_s: list[float] = []
        self.init_s: list[float] = []

    @staticmethod
    def _timed(samples):
        def factory(original):
            def wrapper(*args, **kwargs):
                start = perf()
                result = original(*args, **kwargs)
                samples.append(perf() - start)
                return result
            return wrapper
        return factory

    def installed(self):
        return _patched([
            (engine, "run_round", self._timed(self.round_s)),
            (engine, "init_run_state", self._timed(self.init_s)),
        ])


# Spanned functions: (owner, attribute, span name).
SPANNED = (
    (cli, "run_batch", "cli.run_batch"),
    (cli, "export_metrics_csv", "reporting.export"),
    (cli, "export_network_snapshot", "reporting.export"),
    (engine, "init_run_state", "engine.init"),
    (engine, "init_doctor", "agents.init"),
    (engine, "init_patient", "agents.init"),
    (engine, "run_round", "engine.round"),
    (engine, "refresh_social_perception", "cognitive.refresh"),
    (cognitive, "update_respect_for_colleagues", "cognitive.respect"),
    (cognitive, "update_confidence", "cognitive.confidence"),
    (engine, "spread_infection", "infection.spread"),
    (classical, "choose_doctor", "classical.choose"),
    (classical, "receive_treatment", "classical.treat"),
    (cognitive, "receive_treatment_css", "classical.treat"),
    (engine, "evolve_population", "evolution.evolve"),
    (evolution, "tournament_select", "evolution.tournament"),
    (engine, "capture_snapshot", "engine.capture"),
    (engine, "aggregate_rounds", "engine.aggregate"),
)

# Counted functions: (owner, attribute, counter name).
COUNTED = (
    (cognitive, "judge_doctor_css", "cognitive.judge_calls"),
    (classical, "judge_doctor", "classical.judge_calls"),
    (RatingLedger, "mean_rating", "ratings.mean_rating_calls"),
    (RatingLedger, "add_rating", "ratings.add_calls"),
    (engine, "fitness_patient", "evolution.fitness_evals"),
    (engine, "fitness_doctor", "evolution.fitness_evals"),
    (engine, "crossover_patient", "evolution.crossovers"),
    (engine, "crossover_doctor", "evolution.crossovers"),
    (engine, "mutate_patient", "evolution.mutations"),
    (engine, "mutate_doctor_classical", "evolution.mutations"),
    (engine, "mutate_doctor_css", "evolution.mutations"),
    # sample() and choice() draw through index(), so they are counted there.
    (RngStream, "random", "rng.draws"),
    (RngStream, "uniform", "rng.draws"),
    (RngStream, "chance", "rng.draws"),
    (RngStream, "sign", "rng.draws"),
    (RngStream, "index", "rng.draws"),
)

VALUATION = _qualified(RatingLedger, "weighted_valuation")
DEEPCOPY = "caresim.evolution.copy.deepcopy"
MAIN = "caresim.cli.main"

WRAPPERS = (
    [_qualified(owner, attr) for owner, attr, _ in SPANNED + COUNTED]
    + [VALUATION, DEEPCOPY, MAIN]
)


class Tracer:
    """Spans and exact counts for one traced CLI workload run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._counts: dict[str, list[int]] = {}
        self._fired: dict[str, list[int]] = {}

    def _cell(self, table, name):
        return table.setdefault(name, [0])

    def add(self, name: str, amount) -> None:
        self._cell(self._counts, name)[0] += amount

    def count(self, name: str) -> int:
        return self._cell(self._counts, name)[0]

    def _span(self, name, wrapper_name, after=None):
        spans, stack = self.spans, self._stack
        fired = self._cell(self._fired, wrapper_name)

        def factory(original):
            def wrapper(*args, **kwargs):
                fired[0] += 1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = perf()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    spans[index] = (name, start, end, stack[-1] if stack else -1)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return factory

    def _counter(self, name, wrapper_name):
        cell = self._cell(self._counts, name)
        fired = self._cell(self._fired, wrapper_name)

        def factory(original):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                fired[0] += 1
                return original(*args, **kwargs)
            return wrapper
        return factory

    def _valuation(self, original):
        calls = self._cell(self._counts, "ratings.valuation_calls")
        terms = self._cell(self._counts, "ratings.valuation_terms")
        fired = self._cell(self._fired, VALUATION)

        def wrapper(ledger, doctor_id, ties):
            calls[0] += 1
            fired[0] += 1
            terms[0] += len(ledger.ratings_for(doctor_id))
            return original(ledger, doctor_id, ties)
        return wrapper

    def _copy_module(self, module):
        """Stand-in for the ``copy`` module seen by ``caresim.evolution``."""
        return types.SimpleNamespace(
            deepcopy=self._span("evolution.elite_copy", DEEPCOPY)(module.deepcopy)
        )

    # Result hooks, keyed by span name; each runs after the wrapped call
    # returns, outside its span.

    def _on_agent(self, args, agent):
        self.add("agents.ties", len(agent.social_ties_doctors) + len(agent.social_ties_patients))

    def _on_round(self, args, metrics):
        if metrics.treatments_performed > 0:
            cell = self._cell(self._counts, "engine.last_active_round")
            cell[0] = max(cell[0], metrics.round_index)

    def _on_spread(self, args, applied):
        self.add("infection.applied", applied)
        self.add("infection.requested", args[1])

    def _on_choose(self, args, chosen):
        self.add("classical.seekers", 1)
        if chosen is None:
            self.add("classical.untreated", 1)

    def _on_treat(self, args, rating):
        self.add("classical.treatments", 1)

    def _on_tournament(self, args, pair):
        self.add("evolution.tournaments", 1)

    def _on_capture(self, args, snapshot):
        self.add("engine.edges_captured", len(snapshot.edges))

    def _on_export(self, args, result):
        self.add("reporting.bytes", Path(args[1]).stat().st_size)

    def installed(self):
        hooks = {
            "agents.init": self._on_agent,
            "engine.round": self._on_round,
            "infection.spread": self._on_spread,
            "classical.choose": self._on_choose,
            "classical.treat": self._on_treat,
            "evolution.tournament": self._on_tournament,
            "engine.capture": self._on_capture,
            "reporting.export": self._on_export,
        }
        replacements = [
            (owner, attr, self._span(name, _qualified(owner, attr), hooks.get(name)))
            for owner, attr, name in SPANNED
        ]
        replacements += [
            (owner, attr, self._counter(name, _qualified(owner, attr)))
            for owner, attr, name in COUNTED
        ]
        replacements.append((RatingLedger, "weighted_valuation", self._valuation))
        replacements.append((evolution, "copy", self._copy_module))
        return _patched(replacements)

    def main(self, argv) -> int:
        """Call ``cli.main`` inside a ``cli.main`` span."""
        return self._span("cli.main", MAIN)(cli.main)(argv)

    def wrapper_calls(self) -> dict[str, int]:
        """Calls seen by each wrapper, keyed by the patched ``module.attribute``."""
        return {name: self._cell(self._fired, name)[0] for name in WRAPPERS}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (s), counts and ratios from the recorded spans."""
        total: dict[str, float] = {}
        children: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)
        self_time: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - children.get(index, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        seekers = self.count("classical.seekers")
        export_s = total.get("reporting.export", 0.0)
        return {
            "agents.init_s": total.get("agents.init", 0.0),
            "agents.ties": self.count("agents.ties"),
            "cognitive.refresh_s": total.get("cognitive.refresh", 0.0),
            "cognitive.respect_s": total.get("cognitive.respect", 0.0),
            "cognitive.confidence_s": total.get("cognitive.confidence", 0.0),
            "cognitive.judge_calls": self.count("cognitive.judge_calls"),
            "ratings.valuation_calls": self.count("ratings.valuation_calls"),
            "ratings.valuation_terms": self.count("ratings.valuation_terms"),
            "ratings.mean_rating_calls": self.count("ratings.mean_rating_calls"),
            "ratings.add_calls": self.count("ratings.add_calls"),
            "infection.spread_s": total.get("infection.spread", 0.0),
            "infection.applied": self.count("infection.applied"),
            "infection.landed_ratio": ratio(
                self.count("infection.applied"), self.count("infection.requested")
            ),
            "classical.choose_s": total.get("classical.choose", 0.0),
            "classical.seekers": seekers,
            "classical.judge_calls": self.count("classical.judge_calls"),
            "classical.treat_s": total.get("classical.treat", 0.0),
            "classical.treatments": self.count("classical.treatments"),
            "classical.untreated_ratio": ratio(self.count("classical.untreated"), seekers),
            "evolution.evolve_s": total.get("evolution.evolve", 0.0),
            "evolution.elite_copy_s": total.get("evolution.elite_copy", 0.0),
            "evolution.tournament_s": total.get("evolution.tournament", 0.0),
            "evolution.tournaments": self.count("evolution.tournaments"),
            "evolution.fitness_evals": self.count("evolution.fitness_evals"),
            "evolution.crossovers": self.count("evolution.crossovers"),
            "evolution.mutations": self.count("evolution.mutations"),
            "engine.round_self_s": self_time.get("engine.round", 0.0),
            "engine.aggregate_s": total.get("engine.aggregate", 0.0),
            "engine.capture_s": total.get("engine.capture", 0.0),
            "engine.edges_captured": self.count("engine.edges_captured"),
            "engine.last_active_round": self.count("engine.last_active_round"),
            "reporting.export_s": export_s,
            "reporting.bytes": self.count("reporting.bytes"),
            "reporting.mb_per_s": ratio(self.count("reporting.bytes") / 1e6, export_s),
            "rng.draws": self.count("rng.draws"),
            "cli.self_s": self_time.get("cli.main", 0.0),
        }
