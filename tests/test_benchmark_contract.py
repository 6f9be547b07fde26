"""The benchmark harness in ``perfbench/`` reads program names it does not
own.  Load its modules from their files, unchanged, and check that every
name it traces resolves, that its loop and calibration checks find no
contradiction, and that each workload reproduces its declared digest."""

import importlib
import importlib.util
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from polcomp.bench import NoiseModel

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load("spans")
    for mod_name, fns in spans.TRACED.items():
        module = importlib.import_module(f"polcomp.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"polcomp.{mod_name}.{fn}"
    for mod_name, cls_name, meth in spans.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"polcomp.{mod_name}"), cls_name)
        assert callable(getattr(cls, meth, None)), f"polcomp.{mod_name}.{cls_name}.{meth}"


def test_loop_workload_checks_find_nothing_wrong():
    workloads = _load("workloads")
    trials = workloads.LoopTrials(NoiseModel.lab(), pool=30)
    batch = trials.prepare(1)
    records = [trials.check(batch, k, trials.run(batch, k)) for k in range(trials.pool)]
    assert len(records) == 30
    for k, rec in enumerate(records):
        assert rec.wrong == (), f"op {k}: {rec.wrong}"
        assert rec.readings > 0


def test_traced_loop_reads_once_per_recorded_reading():
    # The traced run's calls_match_readings checks: every recorded reading
    # is one virtual_measure call and one measure_stokes call, nothing more.
    spans, workloads = _load("spans"), _load("workloads")
    trials = workloads.LoopTrials(NoiseModel.lab(), pool=20)
    batch = trials.prepare(2)
    tracer = spans.Tracer()
    op = tracer.wrap_op(trials.run)
    tracer.install()
    try:
        raws = [op(batch, k) for k in range(trials.pool)]
    finally:
        tracer.restore()
    readings = [trials.check(batch, k, raw).readings for k, raw in enumerate(raws)]
    assert min(readings) > 0
    for span in ("bench.virtual_measure", "polarimetry.measure_stokes"):
        assert tracer.calls_per_op(span, trials.pool).tolist() == readings, span


def test_calibrate_files_workload_finds_nothing_wrong(tmp_path):
    workloads = _load("workloads")
    cycles = workloads.CalibrateFiles(tmp_path)
    cycles.pool = 8
    batch = cycles.prepare(1)
    records = [cycles.check(batch, k, cycles.run(batch, k)) for k in range(cycles.pool)]
    assert len(records) == 8
    for k, rec in enumerate(records):
        assert rec.wrong == (), f"op {k}: {rec.wrong}"
        assert "fold_count" not in rec.why, f"op {k}: {rec.why}"
        assert rec.readings == len(workloads.TARGETS)


def test_traced_tomography_reads_each_scan_through_the_public_readers(tmp_path):
    # The traced calibrate-files run sees tomography's scan reads as io
    # spans: one read_scan and one read_scan_metadata call per scan.
    spans, workloads = _load("spans"), _load("workloads")
    cycles = workloads.CalibrateFiles(tmp_path)
    cycles.pool = 4
    batch = cycles.prepare(2)
    tracer = spans.Tracer()
    op = tracer.wrap_op(cycles.run)
    tracer.install()
    try:
        raws = [op(batch, k) for k in range(cycles.pool)]
    finally:
        tracer.restore()
    assert [raw[2] for raw in raws] == [0] * cycles.pool  # tomography's exit code
    scans = [len(workloads.TARGETS)] * cycles.pool
    for span in ("io.read_scan", "io.read_scan_metadata"):
        assert tracer.calls_per_op(span, cycles.pool).tolist() == scans, span


def _declared_digests():
    """The ROADMAP table of declared digests, one ``| `name` | `digest` |`` row each."""
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^\| `([a-z-]+)` \| `([0-9a-f]{16})` \|", roadmap, re.M))


@pytest.mark.parametrize("name", ["loop-lab", "fine-climb", "calibrate-files"])
def test_workload_reproduces_its_declared_digest(name, tmp_path):
    # The digest perfbench reports at seed 2: the first half of the pool,
    # run once in this process.  run.py pins the BLAS thread variables
    # when imported, so the environment is restored after loading it.
    with mock.patch.dict(os.environ):
        run = _load("run")
    workloads = _load("workloads")
    workload = workloads.make(name, tmp_path)
    batch = workload.prepare(2)
    first_half = run.timed_loop(workload, batch, workload.run, len(batch.inputs) // 2)
    assert run.sim_digest(first_half.records) == _declared_digests()[name]
