"""Deterministic file outputs: metrics CSV and network snapshot JSON.

Both writers are byte-stable: fixed column order, six-decimal reals,
LF line endings, and sorted JSON keys, so identical inputs always
produce identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import METRIC_FIELDS, NetworkSnapshot, RoundAggregate

CSV_HEADER = ("model", "stat", "round", *METRIC_FIELDS)


def render_metrics_csv(aggregates: list[RoundAggregate]) -> str:
    lines = [",".join(CSV_HEADER)]
    for agg in aggregates:
        for stat, values in (("mean", agg.mean), ("std", agg.std)):
            cells = [agg.model.value, stat, str(agg.round_index)]
            cells += [f"{values[name]:.6f}" for name in METRIC_FIELDS]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def export_metrics_csv(aggregates: list[RoundAggregate], path: str | Path) -> None:
    path = Path(path)
    try:
        path.write_text(render_metrics_csv(aggregates), encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write metrics CSV to {path}: {exc}") from exc


def snapshot_to_document(snapshot: NetworkSnapshot) -> dict:
    return {
        "round": snapshot.round_index,
        "nodes": [{"id": node_id, "kind": kind} for node_id, kind in snapshot.nodes],
        "edges": [
            {"source": src, "target": dst, "strength": strength}
            for src, dst, strength in snapshot.edges
        ],
    }


def export_network_snapshot(snapshot: NetworkSnapshot, path: str | Path) -> None:
    path = Path(path)
    document = snapshot_to_document(snapshot)
    try:
        path.write_text(
            json.dumps(document, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
            newline="\n",
        )
    except OSError as exc:
        raise OSError(f"cannot write network snapshot to {path}: {exc}") from exc


def load_network_snapshot(path: str | Path) -> NetworkSnapshot:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return NetworkSnapshot(
        round_index=document["round"],
        nodes=[(node["id"], node["kind"]) for node in document["nodes"]],
        edges=[(e["source"], e["target"], e["strength"]) for e in document["edges"]],
    )
