"""On-disk formats: scans, sweeps, curves, run logs, and JSON documents.

Conventions
-----------
* CSV files carry a fixed header naming each column with its unit
  (``angle_deg``, ``drive_voltage_rms_v``, ``retardance_rad``, ...).
  Mechanical angles cross the file boundary in degrees; everything in
  memory is radians.
* Each CSV has a JSON sidecar at the same path with a ``.json`` suffix
  holding the scalars that belong to the whole file (background voltage,
  polarimeter zero offset, curve metadata).
* Missing error bars (NaN) are written as empty fields.
* All writes go to a temporary file in the target directory and are
  moved into place with ``os.replace``, so readers never observe a
  half-written file.
* Parse errors raise :class:`FileFormatError` naming the file and line.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
import numbers
import os
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .compensation import CompensationRun
from .lcvr import CharacterizationSweep, RetardanceCurve
from .polarimetry import PolarimeterScan
from .stokes import UNIT_NORM_TOL

__all__ = [
    "FileFormatError",
    "sidecar_path",
    "write_json_doc",
    "read_json_doc",
    "write_scan",
    "read_scan",
    "read_scan_metadata",
    "write_sweep",
    "read_sweep",
    "write_curve",
    "read_curve",
    "write_run_log",
    "read_run_log",
]

SCAN_HEADER = ["angle_deg", "voltage_v"]
SWEEP_HEADER = ["drive_voltage_rms_v", "mean_pd_voltage_v", "pd_voltage_sem_v"]
CURVE_HEADER = ["drive_voltage_rms_v", "retardance_rad", "retardance_error_rad"]


class FileFormatError(ValueError):
    """A data file does not parse; the message names file and line."""


def sidecar_path(path: str | os.PathLike) -> Path:
    """JSON sidecar belonging to a CSV data file."""
    return Path(path).with_suffix(".json")


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json_doc(path: str | os.PathLike, doc: dict) -> None:
    """Atomically write a JSON document with stable key order."""
    _atomic_write_text(Path(path), json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json_doc(path: str | os.PathLike) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return doc


def _format_float(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x))


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_float(x) for x in row])
    _atomic_write_text(path, buf.getvalue())


def _read_csv(path: Path, header: Sequence[str], nan_ok: Sequence[bool]) -> np.ndarray:
    """Parse a fixed-width numeric CSV into an (n_rows, n_cols) array."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    lines = text.splitlines()
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    reader = csv.reader(lines)
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=1):
        if not row:
            continue
        if lineno == 1:
            if [c.strip() for c in row] != list(header):
                raise FileFormatError(
                    f"{path}:1: expected header {','.join(header)!r}, got {','.join(row)!r}"
                )
            continue
        if len(row) != len(header):
            raise FileFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        values: list[float] = []
        for col, (cell, allow_nan) in enumerate(zip(row, nan_ok)):
            cell = cell.strip()
            if cell == "":
                if allow_nan:
                    values.append(math.nan)
                    continue
                raise FileFormatError(
                    f"{path}:{lineno}: column {header[col]!r} must not be empty"
                )
            try:
                values.append(float(cell))
            except ValueError:
                raise FileFormatError(
                    f"{path}:{lineno}: column {header[col]!r}: "
                    f"{cell!r} is not a number"
                ) from None
        rows.append(values)
    if not rows:
        raise FileFormatError(f"{path}:1: no data rows")
    return np.asarray(rows, dtype=float)


def write_scan(
    path: str | os.PathLike,
    scan: PolarimeterScan,
    true_state: Sequence[float] | None = None,
) -> None:
    """Write a polarimeter scan (CSV) and its sidecar.

    The optional ``true_state`` (a known input, unit three-vector) lands
    in the sidecar for later fidelity accounting; one that
    :func:`read_scan_metadata` would refuse raises ``ValueError`` first.
    """
    path = Path(path)
    meta: dict[str, Any] = {
        "background_voltage_v": float(scan.background_voltage),
        "offset_alpha_deg": float(math.degrees(scan.offset_alpha)),
    }
    if true_state is not None:
        meta["true_state"] = _checked_true_state(list(true_state))
    _write_csv(path, SCAN_HEADER, zip(np.degrees(scan.angles), scan.voltages))
    write_json_doc(sidecar_path(path), meta)


def _json_float(value: Any) -> float | None:
    """``value`` as a float if it is a real number (a JSON int or float,
    never a bool) in float range, else ``None``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _checked_true_state(state: Any) -> list[float]:
    """``state`` as three floats; it must be a list of three finite
    numbers whose norm is 1 within ``UNIT_NORM_TOL``."""
    values = [_json_float(x) for x in state] if isinstance(state, list) else []
    if not (len(values) == 3 and all(x is not None and math.isfinite(x) for x in values)):
        raise ValueError("'true_state' must be three finite numbers")
    if abs(math.sqrt(sum(x * x for x in values)) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("'true_state' is not unit-norm")
    return values


def _sidecar_float(path: Path, meta: dict, key: str, default: float | None = None) -> float:
    """``meta[key]`` as a float; a missing key gives ``default`` if one is set."""
    if key not in meta:
        if default is not None:
            return default
        raise FileFormatError(f"{path}: sidecar is missing {key!r}")
    value = _json_float(meta[key])
    if value is None:
        raise FileFormatError(f"{path}: sidecar {key!r} is not a number")
    return value


def read_scan(path: str | os.PathLike) -> PolarimeterScan:
    path = Path(path)
    data = _read_csv(path, SCAN_HEADER, nan_ok=(False, False))
    side = sidecar_path(path)
    try:
        meta = read_json_doc(side)
    except FileNotFoundError:
        raise FileFormatError(f"{path}: missing sidecar {side.name}") from None
    background = _sidecar_float(side, meta, "background_voltage_v")
    alpha = math.radians(_sidecar_float(side, meta, "offset_alpha_deg"))
    try:
        return PolarimeterScan(
            angles=np.radians(data[:, 0]),
            voltages=data[:, 1],
            background_voltage=background,
            offset_alpha=alpha,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def read_scan_metadata(path: str | os.PathLike) -> dict:
    """Sidecar of a scan file, as a plain dict (empty if absent); a
    ``true_state`` must be a unit three-vector and comes back as floats."""
    side = sidecar_path(path)
    try:
        meta = read_json_doc(side)
    except FileNotFoundError:
        return {}
    if "true_state" in meta:
        try:
            meta["true_state"] = _checked_true_state(meta["true_state"])
        except ValueError as exc:
            raise FileFormatError(f"{side}: sidecar {exc}") from None
    return meta


def write_sweep(path: str | os.PathLike, sweep: CharacterizationSweep) -> None:
    path = Path(path)
    rows = zip(sweep.drive_voltages, sweep.mean_pd_voltages, sweep.pd_voltage_sems)
    _write_csv(path, SWEEP_HEADER, rows)
    write_json_doc(
        sidecar_path(path),
        {
            "background_voltage_v": float(sweep.background_voltage),
            "background_sem_v": float(sweep.background_sem),
        },
    )


def read_sweep(path: str | os.PathLike) -> CharacterizationSweep:
    path = Path(path)
    data = _read_csv(path, SWEEP_HEADER, nan_ok=(False, False, False))
    side = sidecar_path(path)
    try:
        meta = read_json_doc(side)
    except FileNotFoundError:
        raise FileFormatError(f"{path}: missing sidecar {side.name}") from None
    try:
        return CharacterizationSweep(
            drive_voltages=data[:, 0],
            mean_pd_voltages=data[:, 1],
            pd_voltage_sems=data[:, 2],
            background_voltage=_sidecar_float(side, meta, "background_voltage_v"),
            background_sem=_sidecar_float(side, meta, "background_sem_v", 0.0),
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_curve(path: str | os.PathLike, curve: RetardanceCurve) -> None:
    path = Path(path)
    rows = zip(curve.drive_voltages, curve.retardances, curve.retardance_errors)
    _write_csv(path, CURVE_HEADER, rows)
    meta: dict[str, Any] = {
        "voltage_step_v": float(curve.voltage_step),
        "wavelength_nm": None if curve.wavelength_nm is None else float(curve.wavelength_nm),
        "fold_count": None if curve.fold_count is None else int(curve.fold_count),
    }
    write_json_doc(sidecar_path(path), meta)


def read_curve(path: str | os.PathLike) -> RetardanceCurve:
    path = Path(path)
    data = _read_csv(path, CURVE_HEADER, nan_ok=(False, False, True))
    side = sidecar_path(path)
    meta: dict[str, Any] = {}
    try:
        meta = read_json_doc(side)
    except FileNotFoundError:
        pass  # metadata is optional for curves
    # null marks an unknown wavelength or fold count, as write_curve writes.
    wavelength = meta.get("wavelength_nm")
    if wavelength is not None:
        wavelength = _sidecar_float(side, meta, "wavelength_nm")
        if not 0.0 < wavelength < math.inf:
            raise FileFormatError(f"{side}: sidecar 'wavelength_nm' must be in (0, inf)")
    fold_count = meta.get("fold_count")
    if fold_count is not None and not (type(fold_count) is int and fold_count >= 0):
        raise FileFormatError(f"{side}: sidecar 'fold_count' must be a non-negative integer")
    try:
        return RetardanceCurve(
            drive_voltages=data[:, 0],
            retardances=data[:, 1],
            retardance_errors=data[:, 2],
            voltage_step=_sidecar_float(side, meta, "voltage_step_v", 0.0),
            wavelength_nm=wavelength,
            fold_count=fold_count,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _step_record_json(rec) -> dict:
    d = list(rec.retardances) + [None] * (4 - len(rec.retardances))
    v = list(rec.voltages) + [None] * (4 - len(rec.voltages))
    return {
        "step": rec.step,
        "phase": rec.phase,
        "d1_rad": d[0],
        "d2_rad": d[1],
        "d3_rad": d[2],
        "d4_rad": d[3],
        "v1_v": v[0],
        "v2_v": v[1],
        "v3_v": v[2],
        "v4_v": v[3],
        "fidelity": rec.fidelity,
        "stokes": list(rec.stokes),
    }


def write_run_log(path: str | os.PathLike, run: CompensationRun) -> None:
    """JSON-lines transcript of a run: one object per step, then a summary."""
    lines = [json.dumps(_step_record_json(rec), sort_keys=True) for rec in run.steps]
    lines.append(json.dumps({"summary": run.summary()}, sort_keys=True))
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_run_log(path: str | os.PathLike) -> tuple[list[dict], dict]:
    """Parse a run transcript into (step records, summary)."""
    path = Path(path)
    steps: list[dict] = []
    summary: dict = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise FileFormatError(f"{path}:{lineno}: expected a JSON object")
        if "summary" in obj:
            summary = obj["summary"]
            if not isinstance(summary, dict):
                raise FileFormatError(f"{path}:{lineno}: 'summary' must be a JSON object")
        else:
            steps.append(obj)
    if not summary:
        raise FileFormatError(f"{path}: missing summary line")
    return steps, summary
