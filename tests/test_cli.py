"""Command-line behavior: workflows, manifests, determinism, exit codes."""

import json

import numpy as np
import pytest

from polcomp.bench import synthetic_curve_set
from polcomp.cli import main, parse_target
from polcomp.io import sidecar_path, write_curve, write_scan, write_sweep
from polcomp.polarimetry import simulate_scan
from polcomp.stokes import CARDINAL_STOKES

from conftest import sweep_from_profile

TWO_PI = 2 * np.pi


@pytest.fixture()
def sweep_file(tmp_path, drive_grid):
    p = tmp_path / "sweep.csv"
    write_sweep(p, sweep_from_profile(drive_grid, pd_sigma=0.005, seed=8))
    return p


@pytest.fixture()
def curve_files(tmp_path):
    paths = []
    for i, curve in enumerate(synthetic_curve_set(4)):
        p = tmp_path / f"curve{i}.csv"
        write_curve(p, curve)
        paths.append(p)
    return paths


def test_characterize_writes_curve_and_manifest(sweep_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["characterize", str(sweep_file), "-o", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "curve.json").exists()
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["command"] == "characterize"
    assert "2 folds" in capsys.readouterr().out


def test_characterize_is_deterministic(sweep_file, tmp_path):
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    main(["characterize", str(sweep_file), "-o", str(out1)])
    main(["characterize", str(sweep_file), "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_characterize_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "sweep.csv"
    bad.write_text("drive_voltage_rms_v,mean_pd_voltage_v,pd_voltage_sem_v\n1,x,0\n")
    assert main(["characterize", str(bad), "-o", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert "sweep.csv:2" in err


def test_tomography_directory_with_truth(tmp_path, capsys):
    scans = tmp_path / "scans"
    truth = {"H": [1, 0, 0], "D": [0, 1, 0], "R": [0, 0, 1]}
    for i, (name, u) in enumerate(truth.items()):
        scan = simulate_scan(CARDINAL_STOKES[name], 310, TWO_PI / 310)
        write_scan(scans / f"{i}_{name}.csv", scan, true_state=u)
    report_path = tmp_path / "report.json"
    assert main(["tomography", str(scans), "-o", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "mean fidelity over 3 scans: 1.000000" in out
    report = json.loads(report_path.read_text())
    assert len(report["scans"]) == 3
    assert report["mean_fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_tomography_single_file_without_truth(tmp_path, capsys):
    p = tmp_path / "one.csv"
    write_scan(p, simulate_scan(CARDINAL_STOKES["L"], 310, TWO_PI / 310))
    assert main(["tomography", str(p)]) == 0
    out = capsys.readouterr().out
    assert "u = (" in out and "fidelity" not in out


def test_tomography_empty_directory(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["tomography", str(tmp_path / "empty")]) == 1
    assert "no scan CSV" in capsys.readouterr().err


def _edit_sidecar(path, **changes):
    side = sidecar_path(path)
    meta = json.loads(side.read_text())
    meta.update(changes)
    side.write_text(json.dumps(meta))


@pytest.mark.parametrize("state", [None, [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
def test_tomography_malformed_true_state_is_a_data_error(tmp_path, capsys, state):
    p = tmp_path / "one.csv"
    write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, TWO_PI / 310), true_state=[1, 0, 0])
    _edit_sidecar(p, true_state=state)
    assert main(["tomography", str(p)]) == 1
    err = capsys.readouterr().err
    assert "one.json" in err and "true_state" in err


def test_tomography_non_unit_true_state_is_a_data_error(tmp_path, capsys):
    p = tmp_path / "one.csv"
    write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, TWO_PI / 310), true_state=[1, 0, 0])
    _edit_sidecar(p, true_state=[1, 1, 0])  # write_scan refuses to write it
    assert main(["tomography", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("wavelength", ["nan", "-780", "0", "inf"])
def test_characterize_rejects_a_bad_wavelength(sweep_file, tmp_path, capsys, wavelength):
    out = tmp_path / "c.csv"
    assert main(["characterize", str(sweep_file), "-o", str(out),
                 "--wavelength-nm", wavelength]) == 1
    assert "wavelength_nm" in capsys.readouterr().err
    assert not out.exists()


def test_characterize_bad_sweep_sidecar_is_a_data_error(sweep_file, tmp_path, capsys):
    _edit_sidecar(sweep_file, background_sem_v=None)
    assert main(["characterize", str(sweep_file), "-o", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert "sweep.json" in err and "background_sem_v" in err


@pytest.mark.parametrize("key, value", [("voltage_step_v", None), ("wavelength_nm", [1.0]),
                                        ("fold_count", [2]), ("fold_count", 2.7)])
def test_compensate_bad_curve_sidecar_is_a_data_error(curve_files, tmp_path, capsys,
                                                      key, value):
    _edit_sidecar(curve_files[2], **{key: value})
    argv = ["compensate", "--target", "H", "-o", str(tmp_path / "r.jsonl")]
    for p in curve_files:
        argv += ["--curve", str(p)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "curve2.json" in err and key in err


def test_compensate_end_to_end(curve_files, tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    argv = ["compensate"]
    for p in curve_files:
        argv += ["--curve", str(p)]
    argv += ["--target", "R", "--disturbance-seed", "4", "--seed", "2",
             "--noise-preset", "lab", "-o", str(out)]
    assert main(argv) == 0
    assert "fine_threshold_met" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert json.loads(lines[-1])["summary"]["reason"] == "fine_threshold_met"
    # byte-identical on re-run
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_compensate_budget_exit_code(curve_files, tmp_path):
    out = tmp_path / "run.jsonl"
    argv = ["compensate"]
    for p in curve_files:
        argv += ["--curve", str(p)]
    # Disturbance seed 5 probes at fidelity ~0.33, far below the coarse
    # threshold; a one-step budget cannot recover.
    argv += ["--target", "H", "--disturbance-seed", "5", "--max-steps", "1",
             "-o", str(out)]
    assert main(argv) == 3
    summary = json.loads(out.read_text().splitlines()[-1])["summary"]
    assert summary["reason"] == "budget_exhausted"


def test_compensate_requires_enough_curves(curve_files, tmp_path, capsys):
    argv = ["compensate", "--curve", str(curve_files[0]), "--target", "H",
            "-o", str(tmp_path / "r.jsonl")]
    assert main(argv) == 1
    assert "3 or 4" in capsys.readouterr().err


def test_bench_with_trial_logs(tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    logs = tmp_path / "logs"
    argv = ["bench", "--trials", "3", "--seed", "5", "-o", str(stats_path),
            "--log-dir", str(logs)]
    assert main(argv) == 0
    stats = json.loads(stats_path.read_text())
    assert stats["trials"] == 3
    assert stats["unreached_995"] == 0
    assert sorted(p.name for p in logs.glob("*.jsonl")) == [
        "trial_0000.jsonl", "trial_0001.jsonl", "trial_0002.jsonl",
    ]
    manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
    assert len(manifest["outputs"]) == 4


def test_replay_reproduces_bytes(tmp_path):
    stats_path = tmp_path / "stats.json"
    argv = ["bench", "--trials", "2", "--seed", "9", "--noise-preset", "lab",
            "-o", str(stats_path)]
    assert main(argv) == 0
    first = stats_path.read_bytes()
    stats_path.unlink()
    assert main(["replay", str(tmp_path / "stats.json.manifest.json")]) == 0
    assert stats_path.read_bytes() == first


def test_replay_with_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--trials", "2", "--seed", "9", "-o", "stats.json"]) == 0
    first = (tmp_path / "stats.json").read_bytes()
    other = tmp_path / "elsewhere"
    assert main(["replay", "stats.json.manifest.json", "--out-dir", str(other)]) == 0
    assert (other / "stats.json").read_bytes() == first


def test_replay_refuses_replay_manifests(tmp_path, capsys):
    p = tmp_path / "loop.manifest.json"
    p.write_text(json.dumps({"command": "replay", "argv": ["replay", "x"]}))
    assert main(["replay", str(p)]) == 1
    assert "refusing" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, monkeypatch, curve_files):
    monkeypatch.chdir(tmp_path)
    dest = tmp_path / "results"
    monkeypatch.setenv("POLCOMP_OUT_DIR", str(dest))
    argv = ["compensate"]
    for p in curve_files:
        argv += ["--curve", str(p)]
    argv += ["--target", "H", "-o", "run.jsonl"]
    assert main(argv) == 0
    assert (dest / "run.jsonl").exists()
    assert (dest / "run.jsonl.manifest.json").exists()
    assert not (tmp_path / "run.jsonl").exists()


def test_target_parsing():
    r = parse_target("R")
    assert (r.u1, r.u2, r.u3) == (0.0, 0.0, 1.0)
    custom = parse_target("0.6,0.0,0.8")
    assert custom.u1 == pytest.approx(0.6)
    normalized = parse_target("2,0,0")  # normalized for the user
    assert normalized.u1 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        parse_target("Q")
    with pytest.raises(ValueError):
        parse_target("0,0,0")


def test_bad_target_is_a_data_error(curve_files, tmp_path, capsys):
    argv = ["compensate", "--target", "Q", "-o", str(tmp_path / "r.jsonl")]
    for p in curve_files:
        argv += ["--curve", str(p)]
    assert main(argv) == 1
    assert "target" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    assert main(["characterize", str(tmp_path / "nope.csv"),
                 "-o", str(tmp_path / "c.csv")]) == 1
    assert "not found" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [5, None, "bench", [], ["bench", 3]])
def test_replay_rejects_a_malformed_argv(tmp_path, capsys, argv):
    p = tmp_path / "bad.manifest.json"
    p.write_text(json.dumps({"command": "bench", "argv": argv}))
    assert main(["replay", str(p)]) == 1
    err = capsys.readouterr().err
    assert "bad.manifest.json" in err and "argv" in err


@pytest.mark.parametrize("key, value", [("voltage_step_v", "0.01"), ("voltage_step_v", -0.5),
                                        ("voltage_step_v", float("nan")),
                                        ("wavelength_nm", True)])
def test_compensate_curve_sidecar_number_is_a_data_error(curve_files, tmp_path, capsys,
                                                         key, value):
    _edit_sidecar(curve_files[1], **{key: value})
    argv = ["compensate", "--target", "H", "-o", str(tmp_path / "r.jsonl")]
    for p in curve_files:
        argv += ["--curve", str(p)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "curve1." in err and key.removesuffix("_v") in err


@pytest.mark.parametrize("value", ["0.05", True])
def test_tomography_scan_sidecar_number_is_a_data_error(tmp_path, capsys, value):
    p = tmp_path / "one.csv"
    write_scan(p, simulate_scan(CARDINAL_STOKES["H"], 310, TWO_PI / 310))
    _edit_sidecar(p, background_voltage_v=value)
    assert main(["tomography", str(p)]) == 1
    err = capsys.readouterr().err
    assert "one.json" in err and "background_voltage_v" in err


def test_bench_with_too_few_curves_is_a_data_error(curve_files, tmp_path, capsys):
    argv = ["bench", "--trials", "1", "-o", str(tmp_path / "s.json")]
    for p in curve_files[:2]:
        argv += ["--curve", str(p)]
    assert main(argv) == 1
    assert "3 or 4" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()
