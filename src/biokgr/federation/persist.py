"""Result persistence: JSON detail records, CSV projection, markdown summary."""
from __future__ import annotations

import csv
from pathlib import Path

from biokgr import WorkspaceUnavailable, indented_json, writing


def persist_results(records, directory) -> dict:
    """Write `results.json`, `results.csv`, and `results.md`; returns the path manifest.

    The JSON file holds every record as one object; the CSV is a flat
    projection with one xref namespace per column.
    """
    directory = Path(directory)
    rows = [r.to_dict() if hasattr(r, "to_dict") else dict(r) for r in records]
    namespaces = sorted({ns for row in rows for ns in row.get("xrefs", {})})

    json_path = directory / "results.json"
    csv_path = directory / "results.csv"
    md_path = directory / "results.md"
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise WorkspaceUnavailable(f"cannot write results under {directory}: {exc}") from exc
    with writing(json_path) as fh:
        fh.write(indented_json(rows))
    with writing(csv_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "sources"] + namespaces)
        for row in rows:
            writer.writerow(
                [row.get("name", ""), ";".join(row.get("sources", []))]
                + [row.get("xrefs", {}).get(ns, "") for ns in namespaces]
            )
    with writing(md_path) as fh:
        fh.write(f"# Results: results\n\n{len(rows)} results\n\n")
        if rows:
            fh.write("| name | sources |\n|---|---|\n")
            for row in rows[:10]:
                fh.write(f"| {row.get('name', '')} | {';'.join(row.get('sources', []))} |\n")
    return {"json": str(json_path), "csv": str(csv_path), "md": str(md_path)}
