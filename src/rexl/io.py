"""The on-disk formats: JSON lines, JSON documents, YAML configs, manifests.

Every reader and writer in the package goes through this module, so each
convention lives in one place:

* Every file is UTF-8; a reader given other bytes fails in its caller's
  error class, naming the path.
* JSON lines: one object per line, written with sorted keys.  Reading
  skips blank lines, and a line that is not valid JSON or not an object
  fails with a ``<path>:<line>:`` prefix in the caller's error class.
* JSON documents (reports, explanations, manifests): indented, sorted
  keys, a trailing newline.  Neither JSON writer emits NaN or infinity
  (they raise ``ValueError``), which are not JSON.
* YAML configs: a mapping (an empty file gives the defaults) whose keys
  ``check_config`` holds to the fields and kinds of a config dataclass.
* Manifests: every file-producing command writes one next to its primary
  output (``<file>.manifest.json``, or ``manifest.json`` inside an output
  directory).  Manifests carry wall-clock time and a creation stamp, so
  they are the one output exempt from byte-level determinism.

The module imports no other part of the package, so every layer can use it.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar

import yaml

from . import __version__

T = TypeVar("T")


class IOFormatError(Exception):
    pass


def is_index_list(value: object) -> bool:
    """True for a list of distinct non-negative int token indices (bools excluded)."""
    return (isinstance(value, list) and all(type(i) is int and i >= 0 for i in value)
            and len(set(value)) == len(value))


def read_jsonl(path: str | Path,
               error: type[Exception] = IOFormatError) -> Iterator[tuple[str, dict]]:
    """Yield ``("<path>:<line>", record)`` for each non-blank line of a JSON-lines file.

    A line that is not valid JSON, or is valid JSON but not an object,
    raises ``error`` with the same ``<path>:<line>:`` prefix; a file that is
    not UTF-8 raises ``error`` naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise error(f"{where}: not valid JSON ({exc})") from exc
                if not isinstance(record, dict):
                    raise error(f"{where}: record is not an object")
                yield where, record
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc})") from exc


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def write_json(path: str | Path, document: object) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n",
                          encoding="utf-8")


def read_yaml_config(path: str | Path, from_dict: Callable[[dict], T],
                     error: type[Exception]) -> T:
    """Build a config from a YAML mapping; an empty file gives the defaults.

    Unreadable YAML, and every ``ValueError`` or ``error`` that ``from_dict``
    raises, comes out as ``error`` naming the file.
    """
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc})") from exc
    except yaml.YAMLError as exc:
        raise error(f"{path}: invalid YAML ({exc})") from exc
    try:
        return from_dict({} if raw is None else raw)
    except (ValueError, error) as exc:
        raise error(f"{path}: {exc}") from exc


def check_config(data: object, cls: type, what: str,
                 error: type[Exception] = ValueError) -> dict:
    """Return ``data`` once it is a mapping of the dataclass ``cls``'s fields.

    Unknown keys are rejected.  An ``int`` field takes an int and a
    ``float`` field an int or a float, ``bool`` being neither; fields of
    other types are left to ``cls`` to check.
    """
    if not isinstance(data, dict):
        raise error(f"{what} must be a mapping, got {data!r}")
    kinds = {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}
    unknown = set(data) - set(kinds)
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in data.items():
        if kinds[key] == "int" and type(value) is not int:
            raise error(f"{what} key {key!r} must be an integer, got {value!r}")
        if kinds[key] == "float" and type(value) not in (int, float):
            raise error(f"{what} key {key!r} must be a number, got {value!r}")
    return data


def save_predictions(path: str | Path, predictions: Iterable) -> None:
    """Write ``Prediction`` objects as JSON lines, rationales sorted."""
    write_jsonl(path, ({
        "id": p.instance_id,
        "label": p.label,
        "rationale": sorted(p.rationale),
        "gate_prob": p.gate_prob,
    } for p in predictions))


def load_predictions(path: str | Path) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for where, record in read_jsonl(path):
        for key in ("id", "label", "rationale"):
            if key not in record:
                raise IOFormatError(f"{where}: missing key {key!r}")
        if type(record["id"]) is not str:
            raise IOFormatError(f"{where}: id must be a string, got {record['id']!r}")
        if type(record["label"]) is not str:
            raise IOFormatError(
                f"{where}: {record['id']!r}: label must be a string, got {record['label']!r}")
        if record["id"] in out:
            raise IOFormatError(f"{where}: duplicate id {record['id']!r}")
        rationale = record["rationale"]
        if not is_index_list(rationale):
            raise IOFormatError(
                f"{where}: {record['id']!r}: rationale must be a list of "
                f"distinct non-negative token indices, got {rationale!r}"
            )
        out[record["id"]] = record
    return out


@dataclass
class RunManifest:
    """Provenance record for one CLI invocation."""

    command: str
    argv: list[str] = field(default_factory=lambda: list(sys.argv[1:]))
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    seed: Optional[int] = None
    config: dict = field(default_factory=dict)
    version: str = __version__
    started: float = field(default_factory=time.monotonic)

    def write(self, target: str | Path) -> Path:
        """Write next to the primary output; returns the manifest path."""
        target = Path(target)
        if target.is_dir():
            path = target / "manifest.json"
        else:
            path = target.with_name(target.name + ".manifest.json")
        write_json(path, {
            "command": self.command,
            "argv": self.argv,
            "inputs": sorted(self.inputs),
            "outputs": sorted(self.outputs),
            "seed": self.seed,
            "config": self.config,
            "version": self.version,
            "wall_clock_seconds": round(time.monotonic() - self.started, 3),
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        })
        return path
