"""Deterministic file outputs: metrics CSV and network snapshot JSON.

Both writers are byte-stable: fixed column order, six-decimal reals,
LF line endings, and sorted JSON keys, so identical inputs always
produce identical files.  Snapshots are streamed item by item, in the
bytes of ``json.dumps(document, indent=2, sort_keys=True) + "\n"``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, TextIO

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


class _JsonStrings(dict):
    """Each distinct string quoted once, exactly as ``json.dumps`` quotes it."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = json.dumps(text)
        return quoted


# One array item each, in json.dumps layout; %r is the float form json writes.
_NODE = ',\n    {\n      "id": %s,\n      "kind": %s\n    }'
_EDGE = ',\n    {\n      "source": %s,\n      "strength": %r,\n      "target": %s\n    }'


def _write_array(handle: TextIO, key: str, items: Iterator[str]) -> None:
    first = next(items, None)
    if first is None:
        handle.write(f'  "{key}": [],\n')
    else:
        handle.write(f'  "{key}": [{first[1:]}')  # the first item takes no separating comma
        handle.writelines(items)
        handle.write("\n  ],\n")


def export_network_snapshot(snapshot: NetworkSnapshot, path: str | Path) -> None:
    path = Path(path)
    quoted = _JsonStrings()
    edges = (_EDGE % (quoted[src], strength, quoted[dst]) for src, dst, strength in snapshot.edges)
    nodes = (_NODE % (quoted[node_id], quoted[kind]) for node_id, kind in snapshot.nodes)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as handle:
            handle.write("{\n")
            _write_array(handle, "edges", edges)
            _write_array(handle, "nodes", nodes)
            handle.write(f'  "round": {snapshot.round_index!r}\n}}\n')
    except OSError as exc:
        raise OSError(f"cannot write network snapshot to {path}: {exc}") from exc

