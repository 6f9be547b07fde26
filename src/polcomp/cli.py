"""Command-line front end.

Subcommands mirror the bench workflow: ``characterize`` turns a voltage
sweep into a retardance curve, ``tomography`` analyzes polarimeter
scans, ``compensate`` runs one closed-loop session against the virtual
bench, ``bench`` aggregates many trials, and ``replay`` re-executes a
recorded invocation from its manifest.

Each ``cmd_*`` writes its outputs and returns ``(exit code, outputs)``;
:func:`main` alone then writes ``<first output>.manifest.json`` with the
exact argument vector, so any result file can be regenerated bit-for-bit
(all randomness is seeded).  ``tomography`` without ``-o`` gets none.
Relative output paths go under ``$POLCOMP_OUT_DIR`` when it is set, a
replay's included.

Exit codes: 0 success, 1 bad input data or a file-system error (such as
an output path that names a directory), 2 usage errors (argparse), 3
compensation budget exhausted before reaching the fine threshold.  Only
:func:`main` turns an error into exit 1, and it writes no manifest then.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    NoiseModel,
    VirtualApparatus,
    random_disturbance,
    run_trials,
)
from .compensation import LoopConfig, run_compensation
from .io import (
    FileFormatError,
    read_curve,
    read_json_doc,
    read_scan,
    read_scan_metadata,
    read_sweep,
    write_curve,
    write_json_doc,
    write_run_log,
)
from .lcvr import build_curve
from .polarimetry import measure_stokes
from .stokes import CARDINAL_STOKES, NormalizedStokes, cardinal_target, fidelity

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_BUDGET = 3

_ENV_OUT_DIR = "POLCOMP_OUT_DIR"

#: ``--noise-preset`` names and the bench imperfection budgets they select.
_NOISE_PRESETS = {"none": NoiseModel.none, "lab": NoiseModel.lab}


def _resolve_out(path_str: str) -> Path:
    p = Path(path_str)
    if p.is_absolute():
        return p
    base = os.environ.get(_ENV_OUT_DIR)
    return Path(base) / p if base else p


def parse_target(text: str) -> NormalizedStokes:
    """A cardinal name (H, V, D, A, R, L) or a comma-separated unit vector."""
    name = text.strip().upper()
    if name in CARDINAL_STOKES:
        return cardinal_target(name)
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"target must be one of {'/'.join(CARDINAL_STOKES)} or 'u1,u2,u3', got {text!r}"
        )
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError:
        raise ValueError(f"target components must be numbers, got {text!r}") from None
    if not np.isfinite(vec).all():
        raise ValueError(f"target components must be finite, got {text!r}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm == math.inf:  # the squares overflow: scale the largest component to 1
        vec = vec / np.abs(vec).max()
        norm = float(np.linalg.norm(vec))
    if norm < 1e-9:
        raise ValueError("target vector must be non-zero")
    vec = vec / norm
    return NormalizedStokes(*vec)


def _config_from_args(args: argparse.Namespace) -> LoopConfig:
    kwargs = {}
    if args.coarse_threshold is not None:
        kwargs["coarse_threshold"] = args.coarse_threshold
    if args.fine_threshold is not None:
        kwargs["fine_threshold"] = args.fine_threshold
    if args.max_steps is not None:
        kwargs["max_coarse_steps"] = args.max_steps
        kwargs["max_fine_steps"] = args.max_steps
    return LoopConfig(**kwargs)


def _add_loop_options(sub: argparse.ArgumentParser, seed_help: str) -> None:
    sub.add_argument("--coarse-threshold", type=float, default=None,
                     help="a reading that falls below it is solved from (default 0.97)")
    sub.add_argument("--fine-threshold", type=float, default=None,
                     help="fidelity that ends the run (default 0.995)")
    sub.add_argument("--max-steps", type=int, default=None,
                     help="cap both the coarse and fine step budgets")
    sub.add_argument("--noise-preset", choices=tuple(_NOISE_PRESETS), default="none",
                     help="virtual bench imperfection budget (default: none)")
    sub.add_argument("--seed", type=int, default=0, help=seed_help)


def cmd_characterize(args: argparse.Namespace) -> tuple[int, list[str]]:
    sweep = read_sweep(args.sweep)
    curve = build_curve(sweep, wavelength_nm=args.wavelength_nm)
    out = _resolve_out(args.output)
    write_curve(out, curve)
    lo = float(curve.retardances.min())
    hi = float(curve.retardances.max())
    print(
        f"curve: {len(curve)} points, {curve.fold_count} folds, "
        f"retardance {lo:.4f}..{hi:.4f} rad -> {out}"
    )
    return EXIT_OK, [args.output]


def cmd_tomography(args: argparse.Namespace) -> tuple[int, list[str]]:
    root = Path(args.path)
    if root.is_dir():
        files = sorted(root.glob("*.csv"))
        if not files:
            raise FileFormatError(f"{root}: no scan CSV files found")
    else:
        files = [root]

    entries = []
    fidelities = []
    for f in files:
        scan = read_scan(f)
        meta = read_scan_metadata(f)
        u = measure_stokes(scan)
        entry: dict = {"file": f.name, "stokes": [u.u1, u.u2, u.u3]}
        line = f"{f.name}: u = ({u.u1:+.6f}, {u.u2:+.6f}, {u.u3:+.6f})"
        if "true_state" in meta:
            fid = fidelity(u, NormalizedStokes(*meta["true_state"]))
            entry["fidelity"] = fid
            fidelities.append(fid)
            line += f"  fidelity = {fid:.6f}"
        entries.append(entry)
        print(line)

    report: dict = {"scans": entries}
    if fidelities:
        report["mean_fidelity"] = float(np.mean(fidelities))
        print(f"mean fidelity over {len(fidelities)} scans: {report['mean_fidelity']:.6f}")
    if not args.output:
        return EXIT_OK, []
    write_json_doc(_resolve_out(args.output), report)
    return EXIT_OK, [args.output]


def cmd_compensate(args: argparse.Namespace) -> tuple[int, list[str]]:
    curves = [read_curve(p) for p in args.curve]
    target = parse_target(args.target)
    noise = _NOISE_PRESETS[args.noise_preset]()
    config = _config_from_args(args)
    apparatus = VirtualApparatus(
        disturbance=random_disturbance(args.disturbance_seed),
        curves=curves,
        noise=noise,
        seed=args.seed,
    )
    run = run_compensation(apparatus, curves, target, config)

    out = _resolve_out(args.output)
    write_run_log(out, run)
    last = run.steps[-1]
    print(
        f"{run.reason}: {run.total_steps()} steps, final fidelity {last.fidelity:.6f}, "
        f"steps to 0.995: {run.steps_to_995} -> {out}"
    )
    return (EXIT_BUDGET if run.reason == "budget_exhausted" else EXIT_OK), [args.output]


def cmd_bench(args: argparse.Namespace) -> tuple[int, list[str]]:
    target = parse_target(args.target)
    noise = _NOISE_PRESETS[args.noise_preset]()
    config = _config_from_args(args)
    curves = [read_curve(p) for p in args.curve] if args.curve else None
    keep = args.log_dir is not None
    stats = run_trials(
        args.trials,
        config=config,
        noise=noise,
        base_seed=args.seed,
        curves=curves,
        target=target,
        keep_runs=keep,
    )
    out = _resolve_out(args.output)
    write_json_doc(out, stats.to_json())
    outputs = [args.output]
    if keep and stats.runs is not None:
        log_dir = _resolve_out(args.log_dir)
        for i, run in enumerate(stats.runs):
            name = f"trial_{i:04d}.jsonl"
            write_run_log(log_dir / name, run)
            outputs.append(str(Path(args.log_dir) / name))
    print(
        f"{stats.trials} trials: mean steps to 0.97/0.99/0.995 = "
        f"{stats.mean_steps_to_97}/{stats.mean_steps_to_99}/{stats.mean_steps_to_995}, "
        f"unreached 0.995: {stats.unreached_995} -> {out}"
    )
    return EXIT_OK, outputs


def cmd_replay(args: argparse.Namespace) -> tuple[int, list[str]]:
    doc = read_json_doc(args.manifest)
    for key in ("command", "argv"):
        if key not in doc:
            raise FileFormatError(f"{args.manifest}: manifest is missing {key!r}")
    recorded = doc["argv"]
    if not (isinstance(recorded, list) and recorded
            and all(isinstance(a, str) for a in recorded)):
        raise FileFormatError(
            f"{args.manifest}: manifest 'argv' must be a non-empty list of strings"
        )
    if recorded[0] == "replay":
        raise ValueError("refusing to replay a replay")
    print(f"replaying: polcomp {' '.join(recorded)}")
    # The replayed command's own main writes its outputs' manifest.
    return main(recorded), []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polcomp",
        description="LCVR characterization, Stokes polarimetry and "
        "automated polarization compensation.",
    )
    parser.add_argument("--version", action="version", version=f"polcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="turn a voltage sweep into a retardance curve")
    p.add_argument("sweep", help="sweep CSV (with JSON sidecar)")
    p.add_argument("-o", "--output", required=True, help="curve CSV to write")
    p.add_argument("--wavelength-nm", type=float, default=None)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("tomography", help="reconstruct Stokes states from scan files")
    p.add_argument("path", help="scan CSV or a directory of them")
    p.add_argument("-o", "--output", default=None, help="JSON report to write")
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("compensate", help="run one closed-loop session (virtual bench)")
    p.add_argument("--curve", action="append", required=True,
                   help="calibration curve CSV, once per cell (3 or 4)")
    p.add_argument("--target", required=True,
                   help="H/V/D/A/R/L or 'u1,u2,u3'")
    p.add_argument("--disturbance-seed", type=int, default=0,
                   help="seed of the simulated fiber disturbance")
    p.add_argument("-o", "--output", required=True, help="run transcript (JSON lines)")
    _add_loop_options(p, "measurement seed")
    p.set_defaults(func=cmd_compensate)

    p = sub.add_parser("bench", help="aggregate many virtual compensation trials")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--curve", action="append", default=None,
                   help="calibration curve CSV (default: built-in synthetic set)")
    p.add_argument("--target", default="H", help="H/V/D/A/R/L or 'u1,u2,u3'")
    p.add_argument("--log-dir", default=None, help="also write one transcript per trial")
    p.add_argument("-o", "--output", required=True, help="statistics JSON to write")
    _add_loop_options(p, "base seed of the trials: seeds every trial's disturbance and noise")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("replay", help="re-execute a recorded invocation")
    p.add_argument("manifest", help="a *.manifest.json written by another command")
    p.set_defaults(func=cmd_replay)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser for every :func:`main` call in a process; parsing
    leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    try:
        code, outputs = args.func(args)
        if outputs:
            manifest = {"command": args.command, "argv": list(argv),
                        "outputs": outputs, "version": __version__}
            first = _resolve_out(outputs[0])
            write_json_doc(first.with_name(first.name + ".manifest.json"), manifest)
        return code
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except OSError as exc:
        # An output path that names a directory, an unwritable place, ...
        where = exc.filename2 or exc.filename
        print(f"error: {where}: {exc.strerror}" if where else f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except ValueError as exc:
        # Covers FileFormatError, CalibrationError, UnwrapAmbiguityError
        # and plain validation failures.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
