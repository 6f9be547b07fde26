"""File formats: round-trips, sidecars, NaN handling, and the parse
diagnostics that name file and line."""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from polcomp.bench import NoiseModel, VirtualApparatus, random_disturbance, synthetic_curve_set
from polcomp.compensation import run_compensation
from polcomp.io import (
    FileFormatError,
    read_curve,
    read_run_log,
    read_scan,
    read_scan_metadata,
    read_sweep,
    read_json_doc,
    sidecar_path,
    write_curve,
    write_json_doc,
    write_run_log,
    write_scan,
    write_sweep,
)
from polcomp.lcvr import CharacterizationSweep, RetardanceCurve, build_curve
from polcomp.polarimetry import PolarimeterScan, simulate_scan
from polcomp.stokes import CARDINAL_STOKES, cardinal_target


def test_scan_round_trip(tmp_path):
    scan = simulate_scan(CARDINAL_STOKES["D"], 310, 2 * math.pi / 310,
                         alpha=0.1, noise=NoiseModel.lab(), seed=3)
    p = tmp_path / "scan.csv"
    write_scan(p, scan, true_state=[0.0, 1.0, 0.0])
    back = read_scan(p)
    np.testing.assert_allclose(back.angles, scan.angles, atol=1e-12)
    np.testing.assert_allclose(back.voltages, scan.voltages, atol=0)
    assert back.background_voltage == scan.background_voltage
    assert back.offset_alpha == pytest.approx(scan.offset_alpha, abs=1e-15)
    assert read_scan_metadata(p)["true_state"] == [0.0, 1.0, 0.0]


def test_sweep_round_trip(tmp_path, noisy_sweep):
    p = tmp_path / "sweep.csv"
    write_sweep(p, noisy_sweep)
    back = read_sweep(p)
    np.testing.assert_array_equal(back.drive_voltages, noisy_sweep.drive_voltages)
    np.testing.assert_array_equal(back.mean_pd_voltages, noisy_sweep.mean_pd_voltages)
    assert back.background_voltage == noisy_sweep.background_voltage
    assert back.background_sem == noisy_sweep.background_sem


def test_curve_round_trip_with_nan_bars(tmp_path, clean_sweep):
    curve = build_curve(clean_sweep, wavelength_nm=780.0)
    assert np.any(np.isnan(curve.retardance_errors))
    p = tmp_path / "curve.csv"
    write_curve(p, curve)
    # NaN bars become empty CSV fields.
    assert ",\n" in p.read_text() or p.read_text().rstrip().endswith(",")
    back = read_curve(p)
    np.testing.assert_array_equal(back.drive_voltages, curve.drive_voltages)
    np.testing.assert_array_equal(back.retardances, curve.retardances)
    np.testing.assert_array_equal(back.retardance_errors, curve.retardance_errors)
    assert back.wavelength_nm == 780.0
    assert back.fold_count == curve.fold_count


def test_curve_metadata_is_optional(tmp_path, clean_sweep):
    curve = build_curve(clean_sweep)
    p = tmp_path / "curve.csv"
    write_curve(p, curve)
    sidecar_path(p).unlink()
    back = read_curve(p)
    assert back.wavelength_nm is None
    assert back.fold_count is None


# Values whose text is easy to get wrong: signed zero, the smallest
# subnormal, a power of ten that repr writes in exponent form, inexact
# decimals and an integral float.
_SPECIAL = [-0.0, 5e-324, 1e16, 0.1, 1 / 3, 2.0]

_GOLDEN = {
    "curve": (
        lambda p: write_curve(p, RetardanceCurve(
            drive_voltages=[-0.0, 5e-324, 0.1, 1 / 3, 2.0, 1e16],
            retardances=[1e16, 2.0, 1 / 3, 0.1, 5e-324, -0.0],
            retardance_errors=[math.nan, 0.1, -0.0, 5e-324, 1e16, 1 / 3],
            wavelength_nm=780.0, fold_count=2)),
        "drive_voltage_rms_v,retardance_rad,retardance_error_rad\n"
        "-0.0,1e+16,\n5e-324,2.0,0.1\n0.1,0.3333333333333333,-0.0\n"
        "0.3333333333333333,0.1,5e-324\n2.0,5e-324,1e+16\n"
        "1e+16,-0.0,0.3333333333333333\n",
        '{\n  "fold_count": 2,\n  "wavelength_nm": 780.0\n}\n',
    ),
    "sweep": (
        lambda p: write_sweep(p, CharacterizationSweep(
            drive_voltages=[-0.0, 5e-324, 0.1, 1 / 3, 2.0, 3.0, 4.5, 7.0, 12.0, 1e16],
            mean_pd_voltages=[1 / 3, 0.1, -0.0, 5e-324, 1e16, 2.0, 0.25, 1.0, 3.0, 0.5],
            pd_voltage_sems=[0.1, -0.0, 5e-324, 1 / 3, 1e16, 0.0, 0.001, 2.0, 0.02, 0.003],
            background_voltage=0.1, background_sem=1 / 3)),
        "drive_voltage_rms_v,mean_pd_voltage_v,pd_voltage_sem_v\n"
        "-0.0,0.3333333333333333,0.1\n5e-324,0.1,-0.0\n0.1,-0.0,5e-324\n"
        "0.3333333333333333,5e-324,0.3333333333333333\n2.0,1e+16,1e+16\n"
        "3.0,2.0,0.0\n4.5,0.25,0.001\n7.0,1.0,2.0\n12.0,3.0,0.02\n1e+16,0.5,0.003\n",
        '{\n  "background_sem_v": 0.3333333333333333,\n  "background_voltage_v": 0.1\n}\n',
    ),
    "scan": (
        lambda p: write_scan(p, PolarimeterScan(
            angles=np.arange(16) * (math.pi / 8),
            voltages=_SPECIAL * 2 + [1.0, 0.5, 0.25, 0.125],
            background_voltage=-0.0, offset_alpha=0.1), true_state=[0.0, 1.0, 0.0]),
        "angle_deg,voltage_v\n0.0,-0.0\n22.5,5e-324\n45.0,1e+16\n67.5,0.1\n"
        "90.0,0.3333333333333333\n112.5,2.0\n135.0,-0.0\n157.5,5e-324\n"
        "180.0,1e+16\n202.5,0.1\n225.0,0.3333333333333333\n247.49999999999997,2.0\n"
        "270.0,1.0\n292.5,0.5\n315.0,0.25\n337.5,0.125\n",
        '{\n  "background_voltage_v": -0.0,\n  "offset_alpha_deg": 5.729577951308233,\n'
        '  "true_state": [\n    0.0,\n    1.0,\n    0.0\n  ]\n}\n',
    ),
}


@pytest.mark.parametrize("kind", sorted(_GOLDEN))
def test_written_bytes_are_pinned(tmp_path, kind):
    write, csv_text, sidecar_text = _GOLDEN[kind]
    p = tmp_path / f"{kind}.csv"
    write(p)
    assert p.read_bytes() == csv_text.encode()
    assert sidecar_path(p).read_bytes() == sidecar_text.encode()


def test_synthetic_curve_bytes_are_pinned(tmp_path):
    p = tmp_path / "curve.csv"
    write_curve(p, synthetic_curve_set(1)[0])
    data = p.read_bytes()
    assert len(data) == 66073
    assert hashlib.sha256(data).hexdigest() == (
        "bebea0a2e4d7bbd729b383f07ad7aeccbe6b636f0243a84109672ffa31d38b5d"
    )


def _edit_sidecar(path, **changes):
    side = sidecar_path(path)
    meta = json.loads(side.read_text())
    meta.update(changes)
    side.write_text(json.dumps(meta))


@pytest.mark.parametrize("key, value", [
    ("fold_count", 2.7),
    ("fold_count", -1),
    ("wavelength_nm", [780.0]),
    ("fold_count", [2]),
    ("fold_count", True),
])
def test_curve_sidecar_of_the_wrong_type_names_its_key(tmp_path, key, value):
    p = tmp_path / "curve.csv"
    write_curve(p, synthetic_curve_set(1)[0])
    _edit_sidecar(p, **{key: value})
    with pytest.raises(FileFormatError, match=f"curve.json.*{key}"):
        read_curve(p)


@pytest.mark.parametrize("value", [None, [0.001], "small"])
def test_sweep_sidecar_of_the_wrong_type_names_its_key(tmp_path, noisy_sweep, value):
    p = tmp_path / "sweep.csv"
    write_sweep(p, noisy_sweep)
    _edit_sidecar(p, background_sem_v=value)
    with pytest.raises(FileFormatError, match="sweep.json.*background_sem_v"):
        read_sweep(p)


@pytest.mark.parametrize("state", [None, [1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                   ["1", 0.0, 0.0], [math.nan, 0.0, 1.0], "H"])
def test_scan_true_state_must_be_three_finite_numbers(tmp_path, state):
    p = tmp_path / "scan.csv"
    scan = simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310)
    write_scan(p, scan)
    _edit_sidecar(p, true_state=state)
    with pytest.raises(FileFormatError, match="scan.json.*true_state"):
        read_scan_metadata(p)
    if state is not None:  # None is how a caller writes no true state
        with pytest.raises(ValueError, match="true_state"):
            write_scan(tmp_path / "refused.csv", scan, true_state=state)
        assert not (tmp_path / "refused.csv").exists()


def test_scan_requires_sidecar(tmp_path):
    scan = simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310)
    p = tmp_path / "scan.csv"
    write_scan(p, scan)
    sidecar_path(p).unlink()
    with pytest.raises(FileFormatError, match="sidecar"):
        read_scan(p)


def test_bad_header_names_line_one(tmp_path):
    p = tmp_path / "scan.csv"
    p.write_text("angle,volts\n0.0,1.0\n")
    with pytest.raises(FileFormatError, match=r"scan\.csv:1"):
        read_scan(p)


def test_bad_number_names_its_line(tmp_path):
    p = tmp_path / "sweep.csv"
    p.write_text(
        "drive_voltage_rms_v,mean_pd_voltage_v,pd_voltage_sem_v\n"
        + "".join(f"{v},{1-v/20},0.001\n" for v in range(10))
        + "10,oops,0.001\n"
    )
    write_json_doc(sidecar_path(p), {"background_voltage_v": 0.0})
    with pytest.raises(FileFormatError, match=r"sweep\.csv:12.*oops"):
        read_sweep(p)


def test_header_is_the_first_non_blank_line(tmp_path):
    scan = simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310)
    p = tmp_path / "scan.csv"
    write_scan(p, scan)
    text = p.read_text()
    p.write_text("\n" + text)
    np.testing.assert_array_equal(read_scan(p).voltages, scan.voltages)
    p.write_text("\n" + text.split("\n", 1)[1])  # header dropped
    with pytest.raises(FileFormatError, match=r"scan\.csv:2: expected header"):
        read_scan(p)


def test_wrong_field_count_names_its_line(tmp_path):
    p = tmp_path / "scan.csv"
    p.write_text("angle_deg,voltage_v\n0.0,1.0\n1.0\n")
    with pytest.raises(FileFormatError, match=r"scan\.csv:3"):
        read_scan(p)


def test_empty_and_headerless_files(tmp_path):
    p = tmp_path / "scan.csv"
    p.write_text("")
    with pytest.raises(FileFormatError, match=":1"):
        read_scan(p)
    p.write_text("angle_deg,voltage_v\n")
    with pytest.raises(FileFormatError, match="no data rows"):
        read_scan(p)


def test_empty_field_rejected_where_nan_not_allowed(tmp_path):
    p = tmp_path / "scan.csv"
    p.write_text("angle_deg,voltage_v\n0.0,\n")
    with pytest.raises(FileFormatError, match="must not be empty"):
        read_scan(p)


def test_invalid_scan_data_is_wrapped(tmp_path):
    # Parses as CSV but fails physics validation (span too short).
    p = tmp_path / "scan.csv"
    rows = "".join(f"{i*0.5},{1.0}\n" for i in range(20))  # 9.5 deg total
    p.write_text("angle_deg,voltage_v\n" + rows)
    write_json_doc(sidecar_path(p), {"background_voltage_v": 0.0,
                                     "offset_alpha_deg": 0.0})
    with pytest.raises(FileFormatError, match=r"scan\.csv"):
        read_scan(p)


@pytest.mark.parametrize("rise", [0.0, 0.1], ids=["tied", "rising"])
def test_a_curve_that_does_not_fall_strictly_is_refused(tmp_path, rise):
    p = tmp_path / "curve.csv"
    write_curve(p, synthetic_curve_set(1)[0])
    lines = p.read_text().splitlines()
    v, _, e = lines[5].split(",")  # knot 4, after the header and knots 0-3
    lines[5] = ",".join([v, repr(float(lines[4].split(",")[1]) + rise), e])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(p))}: .*knot 4 .* does not "
                                              r"fall below knot 3 "):
        read_curve(p)


def test_json_doc_errors(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(FileFormatError, match="object"):
        read_json_doc(p)
    p.write_text("{broken")
    with pytest.raises(FileFormatError, match=r"doc\.json:1"):
        read_json_doc(p)


def test_atomic_write_replaces_existing(tmp_path):
    p = tmp_path / "doc.json"
    write_json_doc(p, {"a": 1})
    write_json_doc(p, {"a": 2})
    assert json.loads(p.read_text()) == {"a": 2}
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_write_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    p = tmp_path / "doc.json"
    write_json_doc(p, {"a": 1})

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("polcomp.io.os.replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        write_json_doc(p, {"a": 2})
    assert json.loads(p.read_text()) == {"a": 1}
    assert list(tmp_path.glob("*.tmp")) == []


def test_degrees_at_the_file_boundary(tmp_path):
    scan = simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310, alpha=math.pi / 6)
    p = tmp_path / "scan.csv"
    write_scan(p, scan)
    first_data_line = p.read_text().splitlines()[1]
    angle_deg = float(first_data_line.split(",")[0])
    assert angle_deg == pytest.approx(30.0, abs=1e-9)  # alpha folded in, degrees
    meta = read_scan_metadata(p)
    assert meta["offset_alpha_deg"] == pytest.approx(30.0, abs=1e-9)


def test_run_log_round_trip(tmp_path):
    curves = synthetic_curve_set(4)
    app = VirtualApparatus(disturbance=random_disturbance(31), curves=curves,
                           noise=NoiseModel.lab(), seed=5)
    run = run_compensation(app, curves, cardinal_target("H"), seed=6)
    p = tmp_path / "run.jsonl"
    write_run_log(p, run)
    steps, summary = read_run_log(p)
    assert len(steps) == run.total_steps()
    assert summary == run.summary()
    assert steps[0]["step"] == 1
    assert steps[0]["phase"] == "coarse"
    assert steps[-1]["fidelity"] == run.steps[-1].fidelity
    assert steps[0]["v4_v"] is not None  # four-cell stack
    # identical runs serialize to identical bytes
    p2 = tmp_path / "run2.jsonl"
    app2 = VirtualApparatus(disturbance=random_disturbance(31), curves=curves,
                            noise=NoiseModel.lab(), seed=5)
    write_run_log(p2, run_compensation(app2, curves, cardinal_target("H"), seed=6))
    assert p.read_bytes() == p2.read_bytes()


def test_run_log_requires_summary(tmp_path):
    p = tmp_path / "run.jsonl"
    p.write_text('{"step": 1, "phase": "coarse"}\n')
    with pytest.raises(FileFormatError, match="summary"):
        read_run_log(p)


def test_three_cell_run_log_pads_with_nulls(tmp_path):
    curves = synthetic_curve_set(3)
    app = VirtualApparatus(disturbance=random_disturbance(9), curves=curves,
                           noise=NoiseModel.none(), seed=2)
    run = run_compensation(app, curves, cardinal_target("H"), seed=1)
    p = tmp_path / "run.jsonl"
    write_run_log(p, run)
    steps, _ = read_run_log(p)
    assert steps[0]["d4_rad"] is None
    assert steps[0]["v4_v"] is None


def test_write_creates_parent_directories(tmp_path):
    nested = tmp_path / "a" / "b" / "curve.csv"
    curve = RetardanceCurve(
        drive_voltages=np.linspace(1, 2, 5),
        retardances=np.linspace(3, 1, 5),
        retardance_errors=np.zeros(5),
    )
    write_curve(nested, curve)
    assert nested.exists()
    assert read_curve(nested).retardances[0] == 3.0


@pytest.mark.parametrize("key", ["background_voltage_v", "offset_alpha_deg"])
@pytest.mark.parametrize("value", ["0.05", True, pytest.param(10**400, id="huge-int")])
def test_scan_sidecar_number_must_be_a_json_number(tmp_path, key, value):
    p = tmp_path / "scan.csv"
    write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310))
    _edit_sidecar(p, **{key: value})
    with pytest.raises(FileFormatError, match=f"scan.json.*{key}"):
        read_scan(p)


@pytest.mark.parametrize("key", ["background_voltage_v", "background_sem_v"])
@pytest.mark.parametrize("value", ["0.05", False])
def test_sweep_sidecar_number_must_be_a_json_number(tmp_path, noisy_sweep, key, value):
    p = tmp_path / "sweep.csv"
    write_sweep(p, noisy_sweep)
    _edit_sidecar(p, **{key: value})
    with pytest.raises(FileFormatError, match=f"sweep.json.*{key}"):
        read_sweep(p)


@pytest.mark.parametrize("key, value", [
    ("wavelength_nm", "780"),
])
def test_curve_sidecar_number_must_be_a_json_number(tmp_path, key, value):
    p = tmp_path / "curve.csv"
    write_curve(p, synthetic_curve_set(1)[0])
    _edit_sidecar(p, **{key: value})
    with pytest.raises(FileFormatError, match=f"curve.json.*{key}"):
        read_curve(p)


def test_scan_true_state_rejects_bools_and_huge_ints(tmp_path):
    p = tmp_path / "scan.csv"
    write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310))
    for state in ([True, 0, 0], [10**400, 0, 0]):
        _edit_sidecar(p, true_state=state)
        with pytest.raises(FileFormatError, match="scan.json.*true_state"):
            read_scan_metadata(p)
        with pytest.raises(ValueError, match="true_state"):
            write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310),
                       true_state=state)


@pytest.mark.parametrize("step", [0.5, None, "fast"])
def test_curve_sidecar_with_a_voltage_step_still_reads(tmp_path, step):
    # Older curve sidecars carry a "voltage_step_v" key; like any key the
    # reader does not read, it is ignored, whatever its value.
    base = synthetic_curve_set(1)[0]
    p = tmp_path / "curve.csv"
    write_curve(p, base)
    _edit_sidecar(p, voltage_step_v=step)
    back = read_curve(p)
    np.testing.assert_array_equal(back.retardances, base.retardances)
    assert back.wavelength_nm == base.wavelength_nm


@pytest.mark.parametrize("wavelength", [math.nan, -780.0, 0.0, math.inf])
def test_curve_wavelength_must_be_finite_and_positive(tmp_path, wavelength):
    base = synthetic_curve_set(1)[0]
    with pytest.raises(ValueError, match="wavelength_nm"):
        RetardanceCurve(base.drive_voltages, base.retardances, base.retardance_errors,
                        wavelength_nm=wavelength)
    p = tmp_path / "curve.csv"
    write_curve(p, base)
    _edit_sidecar(p, wavelength_nm=wavelength)
    with pytest.raises(FileFormatError, match="curve.json.*'wavelength_nm'"):
        read_curve(p)


def test_scan_true_state_must_be_unit_norm(tmp_path):
    p = tmp_path / "scan.csv"
    write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310))
    _edit_sidecar(p, true_state=[1.0, 1.0, 0.0])
    with pytest.raises(FileFormatError, match=r"scan.json.*'true_state'.*unit-norm"):
        read_scan_metadata(p)
    scan = simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310)
    for state in ([1.0, 1.0, 0.0], [2.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="'true_state'.*unit-norm"):
            write_scan(tmp_path / "refused.csv", scan, true_state=state)
    _edit_sidecar(p, true_state=[1.0 + 1e-7, 0.0, 0.0])  # within UNIT_NORM_TOL
    assert read_scan_metadata(p)["true_state"] == [1.0 + 1e-7, 0.0, 0.0]
    write_scan(p, scan, true_state=np.array([1.0 + 1e-7, 0.0, 0.0]))
    assert read_scan_metadata(p)["true_state"] == [1.0 + 1e-7, 0.0, 0.0]


@pytest.mark.parametrize("line, where", [
    ("5", ":2:"),
    ("[1, 2]", ":2:"),
    ('{"summary": 5}', ":2:"),
    ('{"summary": [1]}', ":2:"),
])
def test_run_log_lines_must_be_objects(tmp_path, line, where):
    p = tmp_path / "run.jsonl"
    p.write_text('{"step": 1, "phase": "coarse"}\n' + line + "\n")
    with pytest.raises(FileFormatError, match=f"run.jsonl{where}"):
        read_run_log(p)



@pytest.mark.parametrize("kind, change, reason", [
    ("scan", {"background_voltage_v": "0.05"}, "'background_voltage_v' is not a number"),
    ("scan", {"background_voltage_v": ...}, "missing 'background_voltage_v'"),
    ("scan", {"offset_alpha_deg": True}, "'offset_alpha_deg' is not a number"),
    ("scan", {"offset_alpha_deg": ...}, "missing 'offset_alpha_deg'"),
    ("scan", "[1]", "expected a JSON object"),
    ("sweep", {"background_voltage_v": None}, "'background_voltage_v' is not a number"),
    ("sweep", {"background_voltage_v": ...}, "missing 'background_voltage_v'"),
    ("sweep", {"background_sem_v": [0.001]}, "'background_sem_v' is not a number"),
    ("sweep", "{broken", "invalid JSON"),
    ("curve", "[1]", "expected a JSON object"),
    ("curve", {"wavelength_nm": "780"}, "'wavelength_nm' is not a number"),
    ("curve", {"wavelength_nm": -780.0}, r"'wavelength_nm' must be in \(0, inf\)"),
    ("curve", {"fold_count": 2.7}, "'fold_count' must be a non-negative integer"),
])
def test_sidecar_error_names_the_sidecar_once(tmp_path, noisy_sweep, kind, change, reason):
    p = tmp_path / f"{kind}.csv"
    if kind == "scan":
        write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310))
    elif kind == "sweep":
        write_sweep(p, noisy_sweep)
    else:
        write_curve(p, synthetic_curve_set(1)[0])
    side = sidecar_path(p)
    if isinstance(change, str):
        side.write_text(change)
    else:
        meta = json.loads(side.read_text())
        meta.update(change)
        side.write_text(json.dumps({k: v for k, v in meta.items() if v is not ...}))
    read = {"scan": read_scan, "sweep": read_sweep, "curve": read_curve}[kind]
    with pytest.raises(FileFormatError, match=reason) as exc:
        read(p)
    message = str(exc.value)
    assert message.startswith(f"{side}:")
    assert str(p) not in message


# --- the reader contract: diagnostics and accepted variants ---------------------

_SCAN_HEAD = "angle_deg,voltage_v\n"


@pytest.mark.parametrize("body, reason", [
    ("0.0,1.0\n1.0,x1\n", ":3: column 'voltage_v': 'x1' is not a number"),
    ("0.0,1.0\n1.0,\n", ":3: column 'voltage_v' must not be empty"),
    ("0.0,1.0\n1.0\n", ":3: expected 2 fields, got 1"),
    ("0.0,1.0\n1.0,2.0,3.0\n", ":3: expected 2 fields, got 3"),
    # Two faults: the first in line order wins, whatever its kind.
    ("0.0,1.0\n1.0\n2.0,bad\n", ":3: expected 2 fields, got 1"),
    ("0.0,1.0\n1.0,bad\n2.0\n", ":3: column 'voltage_v': 'bad' is not a number"),
    ("0.0,1.0\nzz,bad\n", ":3: column 'angle_deg': 'zz' is not a number"),
    ("\n\n0.0,1.0\n\n1.0,q\n", ":6: column 'voltage_v': 'q' is not a number"),
    # A whitespace-only line is a one-field row, not a blank line.
    ("0.0,1.0\n   \n2.0,1.0\n", ":3: expected 2 fields, got 1"),
    # CSV quoting: a quoted comma stays inside its cell.
    ('0.0,1.0\n1.0,"1,5"\n', ":3: column 'voltage_v': '1,5' is not a number"),
    # An unterminated quote runs on into the following lines.
    ('0.0,1.0\n1.0,"2.0\n3.0,1.0\n', ":3: column 'voltage_v': '2.03.0,1.0' is not a number"),
    ("0.0,1.0\r\n1.0,x\r\n", ":3: column 'voltage_v': 'x' is not a number"),
    ("", ":1: no data rows"),
])
def test_malformed_scan_csv_gets_the_first_error(tmp_path, body, reason):
    p = tmp_path / "scan.csv"
    p.write_bytes((_SCAN_HEAD + body).encode())
    write_json_doc(sidecar_path(p), {"background_voltage_v": 0.0, "offset_alpha_deg": 0.0})
    with pytest.raises(FileFormatError) as exc:
        read_scan(p)
    assert str(exc.value) == f"{p}{reason}"


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_an_empty_file_is_named_at_line_one(tmp_path, text):
    p = tmp_path / "scan.csv"
    p.write_text(text)
    with pytest.raises(FileFormatError) as exc:
        read_scan(p)
    assert str(exc.value) == f"{p}:1: empty file"


def test_empty_cell_outside_the_nan_column_is_refused(tmp_path):
    p = tmp_path / "curve.csv"
    p.write_text(",".join(["drive_voltage_rms_v", "retardance_rad", "retardance_error_rad"])
                 + "\n1.0,,0.1\n2.0,1.0,\n")
    with pytest.raises(FileFormatError) as exc:
        read_curve(p)
    assert str(exc.value) == f"{p}:2: column 'retardance_rad' must not be empty"


def _scan_file(tmp_path):
    p = tmp_path / "scan.csv"
    write_scan(p, simulate_scan(CARDINAL_STOKES["D"], 40, 2 * math.pi / 40, seed=1))
    return p


def _variants(text):
    """Spellings of ``text`` that every reader must read alike."""
    lines = text.splitlines()
    return {
        "crlf": "\r\n".join(lines) + "\r\n",
        "blank-lines": "\n\n" + "\n\n".join(lines) + "\n\n",
        "spaces": "\n".join(" , ".join(f" {c}\t" for c in ln.split(",")) for ln in lines),
        "quoted": lines[0] + "\n" + "\n".join(
            ",".join(f'"{c}"' for c in ln.split(",")) for ln in lines[1:]),
    }


@pytest.mark.parametrize("variant", ["crlf", "blank-lines", "spaces", "quoted"])
def test_accepted_spellings_read_the_same_values(tmp_path, noisy_sweep, variant):
    scan_p = _scan_file(tmp_path)
    sweep_p = tmp_path / "sweep.csv"
    write_sweep(sweep_p, noisy_sweep)
    for p, read, names in [
        (scan_p, read_scan, ("angles", "voltages")),
        (sweep_p, read_sweep, ("drive_voltages", "mean_pd_voltages", "pd_voltage_sems")),
    ]:
        clean = read(p)
        p.write_text(_variants(p.read_text())[variant])
        back = read(p)
        for name in names:
            assert getattr(back, name).tobytes() == getattr(clean, name).tobytes()


@pytest.mark.parametrize("rows", [[0], [3], [7], [0, 4, 7], list(range(8))])
@pytest.mark.parametrize("blank", ["", "  "])
def test_nan_error_bars_read_back_anywhere(tmp_path, rows, blank):
    curve = RetardanceCurve(np.linspace(1.0, 8.0, 8), np.linspace(5.0, 1.0, 8),
                            np.full(8, 0.01))
    p = tmp_path / "curve.csv"
    write_curve(p, curve)
    lines = p.read_text().splitlines()
    for k in rows:
        lines[k + 1] = lines[k + 1].rsplit(",", 1)[0] + "," + blank
    p.write_text("\n".join(lines) + "\n")
    errors = read_curve(p).retardance_errors
    assert np.isnan(errors[rows]).all()
    assert (errors[np.setdiff1d(np.arange(8), rows)] == 0.01).all()


# --- what csv itself refuses is a FileFormatError too ---------------------------

# csv refuses a field longer than csv.field_size_limit() (131,072 characters).
_LONG_CELLS = {"number": "1" * 140_003, "text": "x" * 140_003}


def _file_with_cell(tmp_path, noisy_sweep, kind, cell):
    """A written sweep or scan whose line 3 holds ``cell`` in column 2."""
    p = tmp_path / f"{kind}.csv"
    if kind == "sweep":
        write_sweep(p, noisy_sweep)
    else:
        write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, 2 * math.pi / 310))
    lines = p.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = cell
    lines[2] = ",".join(cells)
    p.write_bytes(("\n".join(lines) + "\n").encode())
    return p, {"sweep": read_sweep, "scan": read_scan}[kind]


@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
@pytest.mark.parametrize("content", sorted(_LONG_CELLS))
@pytest.mark.parametrize("kind", ["sweep", "scan"])
def test_a_long_cell_is_a_file_format_error(tmp_path, noisy_sweep, kind, content, quoted):
    cell = _LONG_CELLS[content]
    p, read = _file_with_cell(tmp_path, noisy_sweep, kind, f'"{cell}"' if quoted else cell)
    with pytest.raises(FileFormatError) as exc:
        read(p)
    if quoted or content == "text":
        assert str(exc.value).startswith(f"{p}:3: ")
    else:  # reads as inf, which the data class refuses
        assert str(exc.value).startswith(f"{p}: ")


@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
@pytest.mark.parametrize("kind", ["sweep", "scan"])
def test_a_nul_byte_names_its_line(tmp_path, noisy_sweep, kind, quoted):
    # csv raises on a NUL before Python 3.11 and reads it as data after,
    # so only the file and line are the same everywhere.
    p, read = _file_with_cell(tmp_path, noisy_sweep, kind, '"1.0\0"' if quoted else "1.0\0")
    with pytest.raises(FileFormatError) as exc:
        read(p)
    assert str(exc.value).startswith(f"{p}:3: ")


def test_csv_that_is_not_utf8_names_the_file(tmp_path, noisy_sweep):
    p = tmp_path / "sweep.csv"
    write_sweep(p, noisy_sweep)
    head, line2, rest = p.read_bytes().split(b"\n", 2)
    p.write_bytes(b"\n".join((head, line2 + b"\xb5", rest)))  # a Latin-1 micro sign
    with pytest.raises(FileFormatError, match=r"sweep\.csv: not UTF-8 text .*0xb5"):
        read_sweep(p)


def test_sidecar_that_is_not_utf8_names_the_sidecar(tmp_path, noisy_sweep):
    p = tmp_path / "sweep.csv"
    write_sweep(p, noisy_sweep)
    side = sidecar_path(p)
    side.write_bytes(side.read_bytes().replace(b"}", b', "note": "\xb5"}'))
    with pytest.raises(FileFormatError, match=r"sweep\.json: not UTF-8 text"):
        read_sweep(p)


@pytest.mark.parametrize("kind", ["scan", "sweep", "curve"])
def test_csv_with_a_byte_order_mark_reads_like_one_without(tmp_path, kind, noisy_sweep):
    p = tmp_path / f"{kind}.csv"
    if kind == "scan":
        write_scan(p, simulate_scan(CARDINAL_STOKES["D"], 310, 2 * math.pi / 310,
                                    noise=NoiseModel.lab(), seed=2))
        read = read_scan
    elif kind == "sweep":
        write_sweep(p, noisy_sweep)
        read = read_sweep
    else:
        write_curve(p, synthetic_curve_set(1)[0])
        read = read_curve
    plain = read(p)
    p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
    marked = read(p)
    for name, value in vars(plain).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(getattr(marked, name), value)
        else:
            assert getattr(marked, name) == value
