"""Per-run file workspace and the typed analysis-action vocabulary.

Agents act on retrieved data through a closed set of deterministic table
operations (filter, join, aggregate, extract, dedup) over workspace files
instead of free-form code execution. Every saved artifact is registered in
the manifest with a one-sentence description; the manifest is kept in memory
and written to `manifest.json` once, when the workspace closes (`close()`, or
the end of a `with` block, even one left by an exception). Files are read and
written through `biokgr.read_text` and `biokgr.writing`, so each saved file
and the manifest replace their previous contents atomically. Paths come from
the oracle, possibly an outside service, so one that resolves outside the
root is refused. The root is resolved once, when the workspace opens; a plain
relative path (no `..`) then costs one `lstat` per component, and only a path
through a symlink, with a `..` or absolute is resolved in full.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import os
import re
import stat
from pathlib import Path

from biokgr import Error, WorkspaceUnavailable, field, parse_json, read_text, writing

logger = logging.getLogger(__name__)


class AnalysisError(Error):
    pass


class Workspace:
    def __init__(self, root):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise WorkspaceUnavailable(f"cannot create workspace {root}: {exc}") from exc
        self._resolved_root = self.root.resolve()
        self._manifest_path = self.root / "manifest.json"
        self._files: dict[str, str] = {}  # registered path -> description
        if self._manifest_path.exists():
            self._files = self._load_manifest()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except WorkspaceUnavailable as close_exc:
            if exc is None:
                raise
            # the exception that ended the block is the one to report
            logger.warning("manifest not written: %s", close_exc)

    def close(self) -> None:
        """Write the manifest to `manifest.json`; raises `WorkspaceUnavailable`."""
        with writing(self._manifest_path) as fh:
            fh.write(json.dumps(self.manifest(), indent=2, sort_keys=True))

    # -- manifest ----------------------------------------------------------------

    def manifest(self) -> dict:
        return {"files": [{"path": path, "description": description}
                          for path, description in sorted(self._files.items())]}

    def _load_manifest(self) -> dict[str, str]:
        try:  # ValueError: not UTF-8, not JSON or a field of the wrong type
            entries = field(parse_json(read_text(self._manifest_path)), "files", list, of=dict)
            return {field(e, "path", str): field(e, "description", str) for e in entries}
        except ValueError as exc:
            raise WorkspaceUnavailable(f"malformed {self._manifest_path}: {exc}") from exc

    def register(self, relpath: str, description: str) -> None:
        self._files[relpath] = description

    def exists(self, relpath: str) -> bool:
        return self._path(relpath).exists()

    def _path(self, relpath: str) -> Path:
        """`(root / relpath).resolve()`; refused if outside the root (`..`, absolute, symlink).

        A relative path without `..` whose components below the root are no
        symlinks is that path under the resolved root, found with one `lstat`
        per component (one that cannot be read is no symlink, as for
        `resolve`). Any other path is resolved in full.
        """
        rel = Path(relpath)
        if not rel.is_absolute() and ".." not in rel.parts:
            path = str(self._resolved_root)
            for part in rel.parts:
                path = os.path.join(path, part)
                try:
                    if stat.S_ISLNK(os.lstat(path).st_mode):
                        break
                except OSError:
                    pass
            else:
                return Path(path)
        path = (self.root / relpath).resolve()
        if not path.is_relative_to(self._resolved_root):
            raise WorkspaceUnavailable(f"{relpath!r} resolves outside the workspace {self.root}")
        return path

    # -- writers ------------------------------------------------------------------

    def save_json(self, relpath: str, payload, description: str) -> str:
        return self.save_text(relpath, json.dumps(payload, indent=2, sort_keys=True), description)

    def save_text(self, relpath: str, text: str, description: str) -> str:
        path = self._path(relpath)
        if path.parent != self._resolved_root:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise WorkspaceUnavailable(f"cannot write {path}: {exc}") from exc
        with writing(path) as fh:
            fh.write(text)
        self.register(relpath, description)
        return relpath

    # -- readers --------------------------------------------------------------------

    def read_text(self, relpath: str) -> str:
        return read_text(self._path(relpath))

    def read_table(self, relpath: str) -> list[dict]:
        """JSON list-of-objects or CSV file as a list of row dicts."""
        text = self.read_text(relpath)
        if relpath.endswith(".json"):
            payload = parse_json(text)
            if isinstance(payload, list):
                return [row for row in payload if isinstance(row, dict)]
            raise AnalysisError(f"{relpath} is not a JSON table")
        reader = csv.DictReader(io.StringIO(text))
        return [dict(row) for row in reader]


def run_analysis(workspace: Workspace, spec: dict) -> str:
    """Execute one typed analysis action; returns the output file's relpath.

    Supported ops:
      filter     {input, out, where: {col: value}} or {input, out, contains: {col, text}}
      join       {left, right, on, out}
      aggregate  {input, group_by, out}            (count per group)
      extract    {input, pattern, out}             (regex findall over the file text)
      dedup      {input, key, out}

    A malformed spec, an input that is missing, not text or not a table, and a
    path outside the workspace raise `AnalysisError`.
    """
    try:
        return _apply(workspace, spec)
    except (WorkspaceUnavailable, ValueError, re.error) as exc:  # ValueError: bad spec, JSON or path
        raise AnalysisError(str(exc)) from exc


def _apply(workspace: Workspace, spec: dict) -> str:
    op = spec.get("op")
    out = field(spec, "out", str)

    if op == "filter":
        rows = workspace.read_table(field(spec, "input", str))
        if "where" in spec:
            where = field(spec, "where", dict)
            rows = [r for r in rows if all(str(r.get(k, "")) == str(v) for k, v in where.items())]
        elif "contains" in spec:
            contains = field(spec, "contains", dict)
            col, text = field(contains, "col", str), field(contains, "text", str)
            rows = [r for r in rows if text.casefold() in str(r.get(col, "")).casefold()]
        else:
            raise AnalysisError("filter needs 'where' or 'contains'")
        return workspace.save_json(out, rows, f"filter of {spec['input']}")

    if op == "join":
        left = workspace.read_table(field(spec, "left", str))
        right = workspace.read_table(field(spec, "right", str))
        on = field(spec, "on", str)
        index: dict[str, dict] = {}
        for row in right:
            index.setdefault(str(row.get(on, "")), row)
        joined = []
        for row in left:
            match = index.get(str(row.get(on, "")))
            if match:
                merged = dict(match)
                merged.update(row)
                joined.append(merged)
        return workspace.save_json(out, joined, f"join of {spec['left']} and {spec['right']}")

    if op == "aggregate":
        rows = workspace.read_table(field(spec, "input", str))
        group_by = field(spec, "group_by", str)
        counts: dict[str, int] = {}
        for row in rows:
            key = str(row.get(group_by, ""))
            counts[key] = counts.get(key, 0) + 1
        table = [{"key": k, "count": v} for k, v in sorted(counts.items())]
        return workspace.save_json(out, table, f"counts of {spec['input']} by {group_by}")

    if op == "extract":
        text = workspace.read_text(field(spec, "input", str))
        matches = sorted(set(re.findall(field(spec, "pattern", str), text)))
        return workspace.save_json(out, matches, f"regex extraction from {spec['input']}")

    if op == "dedup":
        rows = workspace.read_table(field(spec, "input", str))
        key = field(spec, "key", str)
        seen: set[str] = set()
        deduped = []
        for row in rows:
            value = str(row.get(key, ""))
            if value not in seen:
                seen.add(value)
                deduped.append(row)
        return workspace.save_json(out, deduped, f"dedup of {spec['input']} by {key}")

    raise AnalysisError(f"unknown analysis op {op!r}")
