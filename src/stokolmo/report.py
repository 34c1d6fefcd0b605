"""Run reports and canonical JSON.

Reports must be byte-identical across reruns with the same model and
seed.  Everything that is allowed into the written document is
deterministic; wall-clock timing is kept on the report object for
display but stays out of the serialized bytes.
Floats are rendered with a fixed "%.12g" so the text form cannot drift
with library or platform printing changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def _format_float(v: float) -> str:
    if v != v:                      # NaN: JSON has no spelling for it
        return "null"
    if v in (float("inf"), float("-inf")):
        return "null"
    if v == 0.0:                    # one spelling for both signed zeros
        return "0"
    out = "%.12g" % v
    # "%.12g" prints integral floats without a point; keep them as numbers,
    # the reader cannot tell 3 from 3.0 and should not have to
    return out


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float format, no whitespace drift."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, item in enumerate(items):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key).__name__}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


@dataclass
class RunReport:
    """Everything one run produced; self-contained and re-runnable."""

    model: dict                    # normalized model echo
    verdict: dict                  # carries the assumption report
    seed: int
    tool_version: str
    verification: dict | None = None
    cli_args: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)   # volatile; never serialized

    def document(self) -> dict:
        doc = {
            "model": self.model,
            "verdict": self.verdict,
            "seed": int(self.seed),
            "tool_version": self.tool_version,
        }
        if self.verification is not None:
            doc["verification"] = self.verification
        if self.cli_args:
            doc["cli_args"] = self.cli_args
        return doc

    def to_text(self) -> str:
        return canonical_json(self.document()) + "\n"


def write_report(report: RunReport, path: str):
    """Serialize canonically; identical runs give byte-identical files."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
