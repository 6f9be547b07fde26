"""On-disk formats: scans, sweeps, curves, run logs, and JSON documents.

Conventions
-----------
* CSV files carry a fixed header naming each column with its unit
  (``angle_deg``, ``drive_voltage_rms_v``, ``retardance_rad``, ...).
  Mechanical angles cross the file boundary in degrees; everything in
  memory is radians.
* One writer, :func:`_write_table`, writes every CSV: the header, then
  one row per sample with each value as the ``repr`` of its Python float
  and a missing error bar (NaN) as an empty field, every line ending in
  ``\n``.
* Each CSV has a JSON sidecar at the same path with a ``.json`` suffix
  holding the scalars that belong to the whole file (background voltage,
  polarimeter zero offset, curve metadata).  Scan and sweep sidecars are
  required; curve sidecars, and the scan metadata read on its own, are
  optional.
* All writes go to a temporary file in the target directory and are
  moved into place with ``os.replace``, so readers never observe a
  half-written file; a failed write leaves no temporary file behind.
* Every accepted CSV converts in one pass; :mod:`csv` splits only text
  holding a quote.  A refused file is scanned once more for its first
  bad line and column.
* Every file is read as UTF-8; a leading byte-order mark, as spreadsheet
  programs write, is dropped.  Writers write no mark.
* Errors raise :class:`FileFormatError`.  A CSV parse error names the
  CSV and line, a file that is not UTF-8 or a bad sidecar value names
  that file, and a value the data class refuses names the CSV, each
  path once.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from itertools import repeat
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .compensation import CompensationRun
from .lcvr import CharacterizationSweep, RetardanceCurve
from .polarimetry import PolarimeterScan
from .stokes import NormalizedStokes

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
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        f = open(tmp, "wb")
    except (FileNotFoundError, NotADirectoryError):
        # The directory is missing (or a file is in its way): make it, so
        # mkdir raises what it cannot make, then open again.
        path.parent.mkdir(parents=True, exist_ok=True)
        f = open(tmp, "wb")
    try:
        with f:
            f.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_doc(path: str | os.PathLike, doc: dict) -> None:
    """Atomically write a JSON document with stable key order."""
    _atomic_write_text(Path(path), json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_text(path: Path) -> str:
    """The UTF-8 text of ``path``, without a leading byte-order mark; bytes
    that are not UTF-8 raise :class:`FileFormatError` naming the file."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason}, byte {bad:#04x})") from None


def read_json_doc(path: str | os.PathLike) -> dict:
    path = Path(path)
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return doc


def _write_table(path: Path, header: Sequence[str], columns: list, meta: dict) -> None:
    """Write ``columns`` (float arrays, one per header name) as the CSV at
    ``path``, then ``meta`` as its sidecar."""
    # A list's repr is its floats' reprs joined by ", ", built in one call.
    texts = [repr(np.asarray(col, dtype=float).tolist())[1:-1].split(", ") for col in columns]
    # "nan" is the only float repr with an "n", so this blanks exactly the NaN cells.
    body = "\n".join(map(",".join, zip(*texts))).replace("nan", "")
    _atomic_write_text(path, ",".join(header) + "\n" + body + "\n")
    write_json_doc(sidecar_path(path), meta)


def _read_csv(path: Path, header: Sequence[str], nan_ok: Sequence[bool]) -> np.ndarray:
    """Parse a fixed-width numeric CSV into an (n_rows, n_cols) array.

    Blank lines are skipped and the first non-blank line is the header;
    cells are read stripped, an empty one as NaN where ``nan_ok``.
    """
    text = _read_text(path)
    lines = text.splitlines()
    ncol = len(header)
    try:
        if '"' in text:  # only csv knows quoting
            head, *body = [row for row in csv.reader(lines) if row] or [[]]
            fits = set(map(len, body)) == {ncol}
            cells = [cell for row in body for cell in row]
        else:  # one split of the joined body is much faster than one per line
            head, *body = list(filter(None, lines)) or [""]
            head = head.split(",")
            fits = set(map(str.count, body, repeat(","))) == {ncol - 1}
            cells = ",".join(body).split(",")
        if fits and [cell.strip() for cell in head] == list(header):
            cells = list(map(str.strip, cells))  # as _first_fault reads them
            for col, allow_nan in enumerate(nan_ok):
                if allow_nan and "" in cells[col::ncol]:
                    cells[col::ncol] = [cell or "nan" for cell in cells[col::ncol]]
            return np.array(list(map(float, cells))).reshape(-1, ncol)
    except (ValueError, csv.Error):  # a cell that float or csv refuses
        pass
    lineno, message = _first_fault(lines, header, nan_ok)
    raise FileFormatError(f"{path}:{lineno}: {message}")


def _first_fault(
    lines: list[str], header: Sequence[str], nan_ok: Sequence[bool]
) -> tuple[int, str]:
    """Line number and wording of the first fault, in line order, of a CSV
    that :func:`_read_csv` refused, split into ``lines``.  A line is
    numbered by its :mod:`csv` record, blank lines counted."""
    lineno, head = 0, None
    try:
        for lineno, row in enumerate(csv.reader(lines), start=1):
            if not row:
                continue
            if head is None:
                head = row
                if [cell.strip() for cell in row] != list(header):
                    return lineno, f"expected header {','.join(header)!r}, got {','.join(row)!r}"
            elif len(row) != len(header):
                return lineno, f"expected {len(header)} fields, got {len(row)}"
            else:
                for name, cell, allow_nan in zip(header, row, nan_ok):
                    cell = cell.strip()
                    if cell == "" and not allow_nan:
                        return lineno, f"column {name!r} must not be empty"
                    try:
                        float(cell or "nan")
                    except ValueError:
                        return lineno, f"column {name!r}: {cell!r} is not a number"
    except csv.Error as exc:  # a field over csv's size limit, a NUL (Python 3.10)
        return lineno + 1, str(exc)
    # No row is at fault, so the file was refused for having no data rows.
    return 1, "empty file" if head is None else "no data rows"


def _read_sidecar(path: Path, required: bool) -> tuple[Path, dict]:
    """The sidecar of ``path`` and its document; a missing sidecar is an
    error if ``required``, else an empty document."""
    side = sidecar_path(path)
    try:
        return side, read_json_doc(side)
    except FileNotFoundError:
        if required:
            raise FileFormatError(f"{path}: missing sidecar {side.name}") from None
        return side, {}


def _build(path: Path, cls: type, **fields: Any) -> Any:
    """``cls(**fields)``; a ``ValueError`` it raises becomes a
    :class:`FileFormatError` naming the CSV at ``path``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


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
    meta: dict[str, Any] = {
        "background_voltage_v": float(scan.background_voltage),
        "offset_alpha_deg": float(math.degrees(scan.offset_alpha)),
    }
    if true_state is not None:
        meta["true_state"] = _checked_true_state(list(true_state))
    _write_table(Path(path), SCAN_HEADER, [np.degrees(scan.angles), scan.voltages], meta)


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
    numbers that :class:`NormalizedStokes` accepts as a unit vector."""
    values = [_json_float(x) for x in state] if isinstance(state, list) else []
    if not (len(values) == 3 and all(x is not None and math.isfinite(x) for x in values)):
        raise ValueError("'true_state' must be three finite numbers")
    try:
        NormalizedStokes(*values)
    except ValueError as exc:
        raise ValueError(f"'true_state' is {exc}") from None
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
    side, meta = _read_sidecar(path, required=True)
    return _build(
        path, PolarimeterScan,
        angles=np.radians(data[:, 0]), voltages=data[:, 1],
        background_voltage=_sidecar_float(side, meta, "background_voltage_v"),
        offset_alpha=math.radians(_sidecar_float(side, meta, "offset_alpha_deg")),
    )


def read_scan_metadata(path: str | os.PathLike) -> dict:
    """Sidecar of a scan file, as a plain dict (empty if absent); a
    ``true_state`` must be a unit three-vector and comes back as floats."""
    side, meta = _read_sidecar(Path(path), required=False)
    if "true_state" in meta:
        try:
            meta["true_state"] = _checked_true_state(meta["true_state"])
        except ValueError as exc:
            raise FileFormatError(f"{side}: sidecar {exc}") from None
    return meta


def write_sweep(path: str | os.PathLike, sweep: CharacterizationSweep) -> None:
    columns = [sweep.drive_voltages, sweep.mean_pd_voltages, sweep.pd_voltage_sems]
    meta = {
        "background_voltage_v": float(sweep.background_voltage),
        "background_sem_v": float(sweep.background_sem),
    }
    _write_table(Path(path), SWEEP_HEADER, columns, meta)


def read_sweep(path: str | os.PathLike) -> CharacterizationSweep:
    path = Path(path)
    data = _read_csv(path, SWEEP_HEADER, nan_ok=(False, False, False))
    side, meta = _read_sidecar(path, required=True)
    return _build(
        path, CharacterizationSweep,
        drive_voltages=data[:, 0], mean_pd_voltages=data[:, 1], pd_voltage_sems=data[:, 2],
        background_voltage=_sidecar_float(side, meta, "background_voltage_v"),
        background_sem=_sidecar_float(side, meta, "background_sem_v", 0.0),
    )


def write_curve(path: str | os.PathLike, curve: RetardanceCurve) -> None:
    columns = [curve.drive_voltages, curve.retardances, curve.retardance_errors]
    meta = {
        "wavelength_nm": None if curve.wavelength_nm is None else float(curve.wavelength_nm),
        "fold_count": None if curve.fold_count is None else int(curve.fold_count),
    }
    _write_table(Path(path), CURVE_HEADER, columns, meta)


def read_curve(path: str | os.PathLike) -> RetardanceCurve:
    path = Path(path)
    data = _read_csv(path, CURVE_HEADER, nan_ok=(False, False, True))
    side, meta = _read_sidecar(path, required=False)
    # null marks an unknown wavelength or fold count, as write_curve writes.
    wavelength = meta.get("wavelength_nm")
    if wavelength is not None:
        wavelength = _sidecar_float(side, meta, "wavelength_nm")
        if not 0.0 < wavelength < math.inf:
            raise FileFormatError(f"{side}: sidecar 'wavelength_nm' must be in (0, inf)")
    fold_count = meta.get("fold_count")
    if fold_count is not None and not (type(fold_count) is int and fold_count >= 0):
        raise FileFormatError(f"{side}: sidecar 'fold_count' must be a non-negative integer")
    return _build(
        path, RetardanceCurve,
        drive_voltages=data[:, 0], retardances=data[:, 1], retardance_errors=data[:, 2],
        wavelength_nm=wavelength, fold_count=fold_count,
    )


def _step_record_json(rec) -> dict:
    """One transcript line; a three-cell run writes ``None`` for cell 4."""
    doc = {"step": rec.step, "phase": rec.phase, "fidelity": rec.fidelity,
           "stokes": list(rec.stokes)}
    for k in range(4):
        doc[f"d{k + 1}_rad"] = rec.retardances[k] if k < len(rec.retardances) else None
        doc[f"v{k + 1}_v"] = rec.voltages[k] if k < len(rec.voltages) else None
    return doc


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
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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
