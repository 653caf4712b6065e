"""Run manifests, prediction files, and config loading for the CLI.

Every file-producing command writes a manifest next to its primary output
(``<file>.manifest.json``, or ``manifest.json`` inside an output
directory).  Manifests carry wall-clock time and a creation stamp, so
they are the one output exempt from byte-level determinism; everything
else written here uses sorted keys and no timestamps.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Optional, Sequence

import yaml

from . import __version__
from .corpus import is_index_list
from .neural.model import Prediction
from .trainer import TrainConfig, TrainingError


class IOFormatError(Exception):
    pass


def save_predictions(path: str | Path, predictions: Sequence[Prediction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in predictions:
            record = {
                "id": p.instance_id,
                "label": p.label,
                "rationale": sorted(p.rationale),
                "gate_prob": p.gate_prob,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_predictions(path: str | Path) -> dict[str, dict]:
    out: dict[str, dict] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IOFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise IOFormatError(f"{path}:{lineno}: record is not an object")
            for key in ("id", "label", "rationale"):
                if key not in record:
                    raise IOFormatError(f"{path}:{lineno}: missing key {key!r}")
            if record["id"] in out:
                raise IOFormatError(f"{path}:{lineno}: duplicate id {record['id']!r}")
            rationale = record["rationale"]
            if not is_index_list(rationale):
                raise IOFormatError(
                    f"{path}:{lineno}: {record['id']!r}: rationale must be a list of "
                    f"distinct non-negative token indices, got {rationale!r}"
                )
            out[record["id"]] = record
    return out


def load_train_config(path: str | Path) -> TrainConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise TrainingError(f"{path}: invalid YAML ({exc})") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise TrainingError(f"{path}: training config must be a mapping")
    try:
        return TrainConfig.from_dict(raw)
    except ValueError as exc:
        raise TrainingError(f"{path}: {exc}") from exc


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
        payload = {
            "command": self.command,
            "argv": self.argv,
            "inputs": sorted(self.inputs),
            "outputs": sorted(self.outputs),
            "seed": self.seed,
            "config": self.config,
            "version": self.version,
            "wall_clock_seconds": round(time.monotonic() - self.started, 3),
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path
