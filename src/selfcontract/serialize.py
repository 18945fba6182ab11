"""File formats: curve JSON, report JSON/CSV, atomic writes, config files.

Floats are serialized with Python's shortest round-trip repr, so parsing
a written file reproduces the exact doubles; files are written to a
temp path and renamed into place.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .errors import GeometryError
from .metric import Curve
from .spaces import space_from_json
from .spaces.base import Space

SCHEMA_VERSION = 1

BOUND_CSV_COLUMNS = [
    "schema_version", "bound", "space", "length", "diam", "width",
    "bound_value", "ratio", "passed", "seed", "constants",
]


def curve_to_json(curve: Curve) -> dict:
    space = curve.space
    return {
        "schema_version": SCHEMA_VERSION,
        "space": space._to_json(),
        "mode": curve.mode,
        "domain_end": "inf" if curve.domain_end == float("inf") else curve.domain_end,
        "samples": [
            {"t": t, "p": space._point_json(p)} for t, p in zip(curve.times, curve.payloads)
        ],
    }


def curve_from_json(obj: dict) -> Curve:
    if not isinstance(obj, dict) or "space" not in obj or "samples" not in obj:
        raise GeometryError("malformed curve document")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise GeometryError(f"unsupported curve schema_version {version!r}")
    try:
        space = space_from_json(obj["space"])
        samples = obj["samples"]
        if not samples:
            raise GeometryError("curve document has no samples")
        times = [float(s["t"]) for s in samples]
        payloads = [s["p"] for s in samples]
        if not all(isinstance(p, list) for p in payloads):
            raise GeometryError("malformed curve document: each sample point is a list")
        payloads = [space.point(p).data for p in payloads]
        end = obj.get("domain_end", "inf")
        domain_end = float("inf") if end == "inf" else float(end)
    except GeometryError:
        raise
    except (ValueError, TypeError, KeyError, IndexError, OverflowError) as e:
        raise GeometryError(f"malformed curve document: {e!r}") from None
    return Curve(space, times, payloads, obj.get("mode", "discrete"), domain_end)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-",
                               suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | Path, obj) -> None:
    write_text_atomic(path, dumps(obj))


def bound_report_csv_rows(reports) -> str:
    lines = [",".join(BOUND_CSV_COLUMNS)]
    for r in reports:
        doc = r.to_json()
        row = [
            str(SCHEMA_VERSION),
            doc["bound"],
            doc["space"],
            repr(doc["length"]),
            repr(doc["diam"]),
            "" if doc["width"] is None else repr(doc["width"]),
            repr(doc["bound_value"]),
            repr(doc["ratio"]),
            "1" if doc["passed"] else "0",
            "" if doc["seed"] is None else str(doc["seed"]),
            json.dumps(doc["constants"], sort_keys=True).replace(",", ";"),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_csv_rows(text: str) -> list[dict[str, str]]:
    """Rows of a CSV file with a header line, each keyed by the header's
    names; blank lines are skipped and a row of the wrong width is refused."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    out = []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise GeometryError(
                f"CSV row {i} has {len(cells)} fields; the header has {len(header)}")
        out.append(dict(zip(header, cells)))
    return out


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, blank lines ignored."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as e:
        raise GeometryError(f"cannot read config file: {e}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GeometryError(f"config line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise GeometryError(f"config line {lineno}: key {key!r} repeated")
        out[key] = value.strip()
    return out


def parse_point_spec(space: Space, text: str):
    """Comma-separated payload coordinates, per-space layout."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise GeometryError("empty point spec")
    try:
        values = [float(p) for p in parts]
        return space.point(values)
    except (ValueError, IndexError, TypeError, OverflowError) as e:
        raise GeometryError(
            f"cannot parse point {text!r} on {space.describe()}: {e}"
        ) from None
