"""Deep research over heterogeneous biomedical knowledge graphs.

Subpackages:
  evidence    deduplicated evidence-graph memory with provenance
  federation  rate-limited clients and unified search over KG services
  pathways    KGML/flat-record parsing and graph analytics
  curation    benchmark task generators (targets, flux, trials, EBM gaps)
  agents      orchestrator and budgeted breadth/depth research agents
  bench       open-benchmark preparation and scoring

Outside JSON (oracle replies, snapshots, manifests, analysis specs, benchmark
files) is decoded by `parse_json` and read through `field`; each raises
`ValueError`, `field` naming the field, and each boundary turns that into its
own exception. A record with a fixed set of fields can be declared once as a
`Shape`, whose `read` checks every field by `field`'s rules and fails with its
wording.

Every exception that outside input or the environment can cause is an `Error`
(a malformed file or reply, a failed source, oracle or workspace); one that
is not means the program broke its own invariant. `WorkspaceUnavailable` is
the `Error` for a file or directory that cannot be read or written.

Apart from the bundled data `load_data` reads, `read_text` and `writing` are
the only places the library opens a file: one reads a file, the other writes
one, and each raises `WorkspaceUnavailable` naming the path. Every output replaces its target atomically, so a failed
write leaves the previous file as it was. `indented_json` lays out every
indented JSON document the library writes or prints.
"""

import json
import os
import re
from contextlib import contextmanager, suppress
from functools import cache
from importlib import resources

__version__ = "0.1.0"

_REQUIRED = object()


class Error(Exception):
    """A failure that outside input or the environment can cause, as opposed to a bug."""


class WorkspaceUnavailable(Error):
    """A file or directory that cannot, or may not, be read or written."""


@cache
def load_data(name: str):
    """A bundled file under `biokgr/data/`, read once per process.

    JSON files come back parsed, any other file as text. Every caller shares
    the returned object, so callers must not mutate it.
    """
    text = resources.files("biokgr.data").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text) if name.endswith(".json") else text


def substring_pattern(words) -> re.Pattern:
    """A pattern whose `search` finds any of `words` in a string; with no words it finds none."""
    return re.compile("|".join(map(re.escape, words)) or "(?!)")


def jsonl_lines(rows):
    """Each row as one line of JSON with sorted keys, its newline included."""
    return (json.dumps(row, sort_keys=True) + "\n" for row in rows)


_quote = json.encoder.encode_basestring_ascii


def indented_json(value, indent: str = "") -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)`, for string-keyed objects.

    `indent` is the padding of the line `value` starts on. The stdlib's
    indented encoder is pure Python and leaves one reference cycle per call
    (its nested closures); this recursion leaves none. It quotes keys and
    string leaves with the C string encoder, writes an int (not a bool) with
    `int.__repr__` as `json.dumps` does, and leaves every other scalar to
    `json.dumps`.
    """
    if isinstance(value, str):
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    pad = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{_quote(key)}: {indented_json(item, pad)}"
                 for key, item in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [indented_json(item, pad) for item in value]
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(items) + f"\n{indent}{brackets[1]}"


def read_text(path) -> str:
    """The UTF-8 text of the file at `path`; raises `WorkspaceUnavailable` naming it.

    Bytes that are not UTF-8 raise `UnicodeDecodeError`, a `ValueError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise WorkspaceUnavailable(f"cannot read {path}: {exc}") from exc


@contextmanager
def writing(path):
    """A UTF-8 text file (`newline=""`) whose contents replace `path` when the block ends.

    The block writes `<path>.tmp`, which `os.replace` renames onto `path` only
    when the block ends normally, so no reader sees a partial file. Any
    exception removes the `.tmp` and leaves `path` as it was; an `OSError`
    raises `WorkspaceUnavailable` naming `path`.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # the failure may have come before the .tmp was made
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise WorkspaceUnavailable(f"cannot write {path}: {exc}") from exc
        raise


def write_jsonl(path, rows) -> None:
    """Write each row as one line of JSON with sorted keys; raises `WorkspaceUnavailable`."""
    with writing(path) as fh:
        fh.writelines(jsonl_lines(rows))


def read_jsonl(path, read=None) -> list:
    """The rows of a JSON-lines file, blank lines skipped, each passed through `read` if given.

    A line that is not JSON, or a `ValueError` from `read`, raises `ValueError`
    naming the file and the row (its line number).
    """
    return parse_jsonl(read_text(path), path, read)


def parse_jsonl(text: str, path, read=None) -> list:
    """`read_jsonl` on `text` already read from the file at `path`."""
    rows = []
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = parse_json(line)
        except ValueError as exc:
            raise ValueError(f"{path} row {number} is not JSON: {exc}") from exc
        try:
            rows.append(row if read is None else read(row))
        except ValueError as exc:
            raise ValueError(f"{path} row {number} {exc}") from exc
    return rows


def parse_json(text):
    """`json.loads(text)` for outside JSON: a value nested too deeply for the
    decoder raises `ValueError`, as malformed JSON does, not `RecursionError`."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("nested too deeply to decode") from exc


def field(record, name: str, types, default=_REQUIRED, of=None):
    """`record[name]`, checked to be one of `types`, whose items are of `of` when given.

    The items `of` checks are a list's elements or a dict's values. Returns
    `default` when the field is absent. Raises `ValueError` naming the field
    when `record` is not a JSON object, a field without a default is absent,
    or the value or an item has the wrong type; a bool is never taken for an
    int.
    """
    if not isinstance(record, dict):
        raise ValueError(f"lacks {name!r}: {record!r:.80} is not an object")
    if name not in record:
        if default is _REQUIRED:
            raise ValueError(f"lacks {name!r}")
        return default
    value = record[name]
    if _is(value, types) and (of is None or all(_is(item, of) for item in _items(value))):
        return value
    listed = "" if of is None else f" of {_names(of)}"
    raise ValueError(f"field {name!r} is not {_names(types)}{listed}: {value!r:.80}")


class Shape:
    """A JSON object's fields in reading order, each with the `types` and `of` `field` takes."""

    def __init__(self, **fields) -> None:
        self.fields = fields
        self._checks = [
            (name, types, of, _tuple(types), of and _tuple(of).__contains__, types is list)
            for name, (types, of) in fields.items()]

    def read(self, record) -> list:
        """The values of `record`'s fields in order, each checked by `field`'s rules.

        A value passes with one exact type test, and a list's items with one
        each; anything else goes to `field`, which raises its `ValueError` or
        accepts a subclass. A list field comes back copied, so the caller
        shares no list with `record`.
        """
        if not isinstance(record, dict):
            field(record, self._checks[0][0], object)  # raises: not an object
        values = []
        for name, types, of, exact, item_fits, copy in self._checks:
            value = record.get(name, _REQUIRED)
            if type(value) not in exact or of and not all(map(item_fits, map(type, _items(value)))):
                field(record, name, types, of=of)
            values.append(list(value) if copy else value)
        return values


def _tuple(types) -> tuple:
    return types if isinstance(types, tuple) else (types,)


def _items(value):
    """The items `of` checks: a dict's values, or the elements of anything else."""
    return value.values() if isinstance(value, dict) else value


def _names(types) -> str:
    return " or ".join(t.__name__ for t in _tuple(types))


def _is(value, types) -> bool:
    if type(value) is bool:  # an int subclass, but never taken for an int
        return bool in _tuple(types)
    return isinstance(value, types)
