"""File formats: round-trips, sidecars, NaN handling, and the parse
diagnostics that name file and line."""

import json
import math

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
from polcomp.lcvr import RetardanceCurve, build_curve
from polcomp.polarimetry import simulate_scan
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
    assert back.voltage_step == curve.voltage_step


def test_curve_metadata_is_optional(tmp_path, clean_sweep):
    curve = build_curve(clean_sweep)
    p = tmp_path / "curve.csv"
    write_curve(p, curve)
    sidecar_path(p).unlink()
    back = read_curve(p)
    assert back.wavelength_nm is None
    assert back.fold_count is None


def _edit_sidecar(path, **changes):
    side = sidecar_path(path)
    meta = json.loads(side.read_text())
    meta.update(changes)
    side.write_text(json.dumps(meta))


@pytest.mark.parametrize("key, value", [
    ("voltage_step_v", None),
    ("voltage_step_v", "fast"),
    ("wavelength_nm", [780.0]),
    ("fold_count", [2]),
    ("fold_count", 2.7),
    ("fold_count", -1),
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
    ("voltage_step_v", "0.01"),
    ("voltage_step_v", True),
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


@pytest.mark.parametrize("step", [-0.5, math.nan, math.inf])
def test_curve_voltage_step_must_be_finite_and_non_negative(tmp_path, step):
    base = synthetic_curve_set(1)[0]
    with pytest.raises(ValueError, match="voltage_step"):
        RetardanceCurve(base.drive_voltages, base.retardances, base.retardance_errors,
                        voltage_step=step)
    p = tmp_path / "curve.csv"
    write_curve(p, base)
    _edit_sidecar(p, voltage_step_v=step)
    with pytest.raises(FileFormatError, match="curve.csv.*voltage_step"):
        read_curve(p)


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
