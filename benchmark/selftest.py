"""Self-test of the benchmark's probes and correctness check.

Usage (from the repository root)::

    python3 benchmark/selftest.py            # check; exits non-zero on any failure
    python3 benchmark/selftest.py --record   # rewrite reference.json from the current code

The check:

* reproduces the ``paper-single`` seed-123 ``metrics.csv`` digest
  prefixes recorded in ROADMAP item 1;
* runs each workload at its default seed once untraced and twice traced,
  and requires every output digest to equal ``reference.json`` (so the
  wrappers change no byte and make no RNG draw);
* requires the exact counts of the two traced runs to be identical;
* requires every wrapper to fire on the workloads that exercise it and to
  stay silent on the others (``cognitive.*`` on classical-full), and every
  patched name to be restored afterwards.

It then prints the traced layer split next to ROADMAP's indicative
baseline table.  Timing shares are reported, not asserted, because an
optimisation is expected to move them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from run import (
    END_TO_END_UNITS, ROOT, SCRATCH, check_exact_counts, load_program, run_iteration, unit,
)
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS, load_reference

ROADMAP_PREFIXES = {"classical": "0ca463187083", "css": "84a3c217a8bc"}

# Wrappers that must not fire on a workload; every other wrapper must.
SILENT = {
    "css-full": {
        "caresim.classical.judge_doctor",
        "caresim.classical.receive_treatment",
        "caresim.engine.mutate_doctor_classical",
        "caresim.engine.capture_snapshot",
        "caresim.cli.export_network_snapshot",
    },
    "classical-full": {
        "caresim.engine.refresh_social_perception",
        "caresim.cognitive.update_respect_for_colleagues",
        "caresim.cognitive.update_confidence",
        "caresim.cognitive.judge_doctor_css",
        "caresim.cognitive.receive_treatment_css",
        "caresim.ratings.RatingLedger.weighted_valuation",
        "caresim.engine.mutate_doctor_css",
        "caresim.engine.capture_snapshot",
        "caresim.cli.export_network_snapshot",
    },
    "css-single-snap": {
        "caresim.classical.judge_doctor",
        "caresim.classical.receive_treatment",
        "caresim.engine.mutate_doctor_classical",
    },
}

# ROADMAP's indicative baseline (one css / classical paper-full repeat at
# seed 7, and one full-scale css snapshot of 1,208,900 edges and 106 MB).
BASELINE = {
    "css refresh per repeat (s)": 2.86,
    "css rounds per repeat (s)": 4.2,
    "css evolve per repeat (s)": 1.02,
    "css init per repeat (s)": 0.43,
    "classical init per repeat (s)": 0.03,
    "classical rounds per repeat (s)": 0.55,
    "full-scale snapshot capture (s)": 1.3,
    "full-scale snapshot export (s)": 12.7,
}
FULL_SCALE_EDGES = 1_208_900
FULL_SCALE_SNAPSHOT_MB = 106.0


def check_roadmap_prefixes() -> list[str]:
    from caresim import cli

    errors = []
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        for model, prefix in ROADMAP_PREFIXES.items():
            out = tmp / model
            with redirect_stdout(io.StringIO()):
                code = cli.main(["--preset", "paper-single", "--model", model,
                                 "--seed", "123", "--out", str(out)])
            digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
            if code != 0 or not digest.startswith(prefix):
                errors.append(f"paper-single {model} seed 123: exit {code}, digest {digest[:12]} != {prefix}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return errors


def patched_names():
    from probes import COUNTED, SPANNED
    from caresim import evolution
    from caresim.ratings import RatingLedger

    owners = [(owner, attr) for owner, attr, _ in SPANNED + COUNTED]
    owners += [(RatingLedger, "weighted_valuation"), (evolution, "copy")]
    return {(id(owner), attr): getattr(owner, attr) for owner, attr in owners}


def span_total(spans, name: str) -> float:
    return sum(end - start for span_name, start, end, _ in spans if span_name == name)


def check_workload(workload, reference) -> tuple[list[str], dict]:
    from probes import Tracer

    before = patched_names()
    expected = reference[workload.name]
    untraced = run_iteration(workload, DEFAULT_SEED, expected)
    traced = [run_iteration(workload, DEFAULT_SEED, expected, Tracer()) for _ in range(2)]
    check_exact_counts(traced)
    errors = [f"{workload.name}: {f}" for it in [untraced, *traced] for f in it.failures]
    if patched_names() != before:
        errors.append(f"{workload.name}: a patched name was not restored")
    for name, calls in traced[0].wrapper_calls.items():
        silent = name in SILENT[workload.name]
        if silent != (calls == 0):
            errors.append(f"{workload.name}: wrapper {name} fired {calls} times, expected "
                          + ("none" if silent else "some"))
    if workload.name == "classical-full":
        nonzero = {k: v for k, v in traced[0].layers.items() if k.startswith("cognitive.") and v}
        if nonzero:
            errors.append(f"classical-full: cognitive layer active: {nonzero}")
    layers = dict(traced[0].layers)
    layers["engine.round_s"] = span_total(traced[0].spans, "engine.round")
    layers["engine.init_s"] = span_total(traced[0].spans, "engine.init")
    layers["wall_s"] = traced[0].wall_s
    layers["untraced_wall_s"] = untraced.wall_s
    layers["untraced_rounds_s"] = sum(untraced.round_s)
    layers["untraced_setup_s"] = untraced.setup_s
    return errors, layers


def report(layers: dict[str, dict]) -> None:
    css, classical, snap = layers["css-full"], layers["classical-full"], layers["css-single-snap"]
    time_layers = [k for k in css if "." in k and k.endswith("_s") and unit(k) == "s"
                   and k not in ("engine.round_s", "engine.init_s")]
    print("\nTraced split (default seeds, one traced run each):")
    for name, data in layers.items():
        top = sorted(time_layers, key=lambda k: -data[k])[:4]
        print(f"  {name}: wall {data['wall_s']:.2f} s traced, {data['untraced_wall_s']:.2f} s untraced; "
              + ", ".join(f"{k} {data[k]:.2f}" for k in top))
    print("  css-full: cognitive.refresh_s is the largest layer:",
          max(time_layers, key=lambda k: css[k]) == "cognitive.refresh_s")
    print(f"  css-single-snap: (export + capture) / wall = "
          f"{(snap['reporting.export_s'] + snap['engine.capture_s']) / snap['wall_s']:.2f}")
    print(f"  classical-full: (choose + evolve) / rounds = "
          f"{(classical['classical.choose_s'] + classical['evolution.evolve_s']) / classical['engine.round_s']:.2f}")
    css_repeats = WORKLOADS["css-full"].repeats
    classical_repeats = WORKLOADS["classical-full"].repeats
    measured = {
        "css refresh per repeat (s)": css["cognitive.refresh_s"] / css_repeats,
        "css rounds per repeat (s)": css["engine.round_s"] / css_repeats,
        "css evolve per repeat (s)": css["evolution.evolve_s"] / css_repeats,
        "css init per repeat (s)": css["engine.init_s"] / css_repeats,
        "classical init per repeat (s)": classical["engine.init_s"] / classical_repeats,
        "classical rounds per repeat (s)": classical["engine.round_s"] / classical_repeats,
        "full-scale snapshot capture (s)":
            snap["engine.capture_s"] / snap["engine.edges_captured"] * FULL_SCALE_EDGES,
        "full-scale snapshot export (s)": FULL_SCALE_SNAPSHOT_MB / snap["reporting.mb_per_s"],
    }
    # Untraced estimates: timed directly where the untraced probe sees the
    # layer, otherwise the traced share of round time x untraced round time.
    css_rounds = css["untraced_rounds_s"] / css_repeats
    untraced = {
        "css refresh per repeat (s)": css["cognitive.refresh_s"] / css["engine.round_s"] * css_rounds,
        "css rounds per repeat (s)": css_rounds,
        "css evolve per repeat (s)": css["evolution.evolve_s"] / css["engine.round_s"] * css_rounds,
        "css init per repeat (s)": css["untraced_setup_s"] / css_repeats,
        "classical init per repeat (s)": classical["untraced_setup_s"] / classical_repeats,
        "classical rounds per repeat (s)": classical["untraced_rounds_s"] / classical_repeats,
    }
    print("\nROADMAP baseline vs this run (full-scale rows extrapolated from "
          "css-single-snap per edge and per MB):")
    for name, baseline in BASELINE.items():
        extra = f"  untraced {untraced[name]:7.3f}" if name in untraced else ""
        print(f"  {name:34s} baseline {baseline:7.3f}  traced {measured[name]:7.3f}{extra}")


def record() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        iteration = run_iteration(workload, DEFAULT_SEED, None)
        if iteration.failures:
            print("\n".join(iteration.failures), file=sys.stderr)
            return 1
        reference[workload.name] = iteration.digests
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def check_benchmark_json() -> list[str]:
    """BENCHMARK.json must declare exactly the workloads and metrics printed."""
    from probes import Tracer

    layer_names = [*Tracer().layer_metrics(), "trace.overhead_frac"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    if declared["workloads"] != [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]:
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    for key, names in (("end_to_end", list(END_TO_END_UNITS)), ("per_layer", layer_names)):
        if [(m["name"], m["unit"]) for m in declared[key]] != [(n, unit(n)) for n in names]:
            errors.append(f"BENCHMARK.json {key} metrics differ from the printed ones")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-test of the caresim benchmark.")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    load_program()
    if args.record:
        return record()
    errors = check_roadmap_prefixes()
    reference = load_reference()
    layers = {}
    for workload in WORKLOADS.values():
        workload_errors, layers[workload.name] = check_workload(workload, reference)
        errors += workload_errors
        print(f"{workload.name}: {'ok' if not workload_errors else 'FAILED'}")
    errors += check_benchmark_json()
    report(layers)
    for error in errors:
        print(f"FAILED: {error}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
