"""Seed determinism: the same (config, seed) point is byte-reproducible.

The whole evaluation depends on runs being pure functions of their
coordinates: same app/input/system/scale/seed ⇒ identical simulation,
hence identical manifest modulo the volatile keys (wall time,
timestamp). These tests lock that down for single runs, for repeated
runs in one process, and for the sweep runner across worker counts —
``run_sweep`` must produce the same merged ``sweep.json`` byte for
byte whether it ran inline or on a process pool. A point that fails
raises out of ``run_sweep`` instead of yielding a partial sweep.
"""

import json

import pytest

from repro.harness import SweepPoint, prepare_input, run_experiment, run_sweep
from repro.stats.manifest import (load_manifests, strip_volatile)

_SCALE = 0.06


def _canon(manifest: dict) -> str:
    return json.dumps(strip_volatile(manifest), indent=2, sort_keys=True)


@pytest.mark.parametrize("seed", [1, 3])
def test_same_seed_same_manifest(seed):
    manifests = []
    for _ in range(2):
        prepared = prepare_input("bfs", "In", scale=_SCALE, seed=seed)
        result = run_experiment("bfs", "In", "fifer", prepared=prepared,
                                scale=_SCALE, seed=seed)
        manifests.append(result.to_manifest())
    assert _canon(manifests[0]) == _canon(manifests[1])


def test_different_seeds_differ():
    outcomes = []
    for seed in (1, 3):
        prepared = prepare_input("bfs", "In", scale=_SCALE, seed=seed)
        result = run_experiment("bfs", "In", "fifer", prepared=prepared,
                                scale=_SCALE, seed=seed)
        outcomes.append(_canon(result.to_manifest()))
    assert outcomes[0] != outcomes[1]


def _points():
    return [SweepPoint("bfs", "In", system, scale=_SCALE, seed=seed)
            for system in ("static", "fifer") for seed in (1, 3)]


def test_sweep_workers_byte_identical(tmp_path):
    """workers=1 (inline) vs workers=4 (process pool): per-point
    manifests and the merged sweep.json must be byte-identical modulo
    volatile keys, and result order must follow input order."""
    texts = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        results = run_sweep(_points(), workers=workers, manifest_dir=out)
        assert [r.label for r in results] == [p.label.rsplit("/", 2)[0]
                                              for p in _points()]
        merged = json.loads((out / "sweep.json").read_text())
        assert merged["kind"] == "sweep"
        assert merged["n_points"] == len(_points())
        texts[workers] = {
            "sweep": json.dumps(merged, indent=2, sort_keys=True),
            "points": [_canon(m) for m in load_manifests(out)],
        }
    assert texts[1] == texts[4]


def test_sweep_repeat_byte_identical(tmp_path):
    sweeps = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        run_sweep(_points(), workers=2, manifest_dir=out)
        merged = json.loads((out / "sweep.json").read_text())
        # The merged document itself strips volatile keys, so the raw
        # bytes (not just a canonicalization) must match across runs.
        sweeps.append((out / "sweep.json").read_text())
        for point in merged["points"]:
            assert "wall_time_s" not in point
            assert "created" not in point
    assert sweeps[0] == sweeps[1]


def test_load_manifests_skips_sweep_document(tmp_path):
    run_sweep(_points()[:2], workers=1, manifest_dir=tmp_path)
    manifests = load_manifests(tmp_path)
    assert len(manifests) == 2
    assert all(m.get("kind") != "sweep" for m in manifests)


def test_failing_point_raises_out_of_sweep():
    # an unknown variant passes SweepPoint construction but explodes in
    # the workload build, i.e. deep inside the worker
    poisoned = SweepPoint("bfs", "Hu", "fifer", variant="bogus",
                          scale=_SCALE)
    good = SweepPoint("bfs", "Hu", "fifer", scale=_SCALE)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="bogus"):
            run_sweep([good, poisoned], workers=workers)
