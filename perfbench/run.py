"""Host-time benchmark of the Fifer reproduction, with per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload graph --seed 1 --seconds 20 --trace 0

One run sets up a workload (import, synthetic inputs plus golden
references, a cold compile of every CGRA program), then makes whole
passes over the workload's points with ``repro.harness.run_experiment``.
Every call is verified against its golden reference and counts as one
operation. Host times are calibrated against a fixed kernel that runs
interleaved with the work (``calibration.py``). With ``--trace 1`` every
point also runs once more per pass with phase spans recorded, and the
per-layer metrics are reported instead of the end-to-end ones. The last
line of standard output is one JSON object; README.md next to this file
describes every metric.
"""

from __future__ import annotations

import time

# CPU time the interpreter spent before this line counts toward setup_s.
_START_CPU = time.thread_time()

import argparse  # noqa: E402
import compileall  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import NOMINAL_S, Calibrator  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# graph mirrors the fig13 grid (activity-dominated, codegen-bound);
# spmm-silo runs every stage on the interpreted path, with scan-mode DRMs
# and B+tree pointer chasing; road is the stall-dominated, high-diameter
# regime where Fifer loses to the static pipeline. sssp/Rd is left out of
# road: its label-correcting host work swings by +-25% with the generator
# seed, more than any bound on host_s could absorb (README.md).
WORKLOADS = {
    "graph": (("bfs", "In"), ("cc", "Ci"), ("prd", "Ci"), ("radii", "Ci"),
              ("sssp", "In")),
    "spmm-silo": (("spmm", "GE"), ("spmm", "FD"), ("spmm", "St"),
                  ("silo", "YC")),
    "road": (("bfs", "Rd"),),
}
# Nominal seconds of one untraced pass (graph and spmm-silo take about
# this long on the reference host). A run makes round(--seconds / this)
# passes, at least one, so the pass count (and with it what host_s is the
# median of) never depends on host speed.
PASS_S = {"graph": 10.0, "spmm-silo": 10.0, "road": 3.0}
SYSTEMS = ("multicore", "static", "fifer")
CGRA_SYSTEMS = ("static", "fifer")
ENGINE = "fast"
CODEGEN = True
SETUP_ROUNDS = 5
# Apps that traverse their graph from vertex 0, and the share of the
# vertices that traversal must reach for a generated graph to be used.
TRAVERSALS = ("bfs", "sssp")
MIN_REACH = 0.5
SEED_STRIDE = 100_003

END_TO_END_UNITS = {
    "host_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "fifer_speedup": "x", "fifer_vs_static": "x",
}
PER_LAYER_UNITS = {
    "datasets.prepare_s": "s", "compile.cold_s": "s", "compile.warm_s": "s",
    "cache.mapping_hits": "count", "cache.mapping_misses": "count",
    "codegen.emitted": "count", "codegen.bound_stages": "count",
    "codegen.fallback_stages": "count",
    "core.simulate_s": "s", "core.pe_quanta": "count",
    "core.us_per_pe_quantum": "us", "core.sim_kcycles_per_s": "kcycles/s",
    "baselines.ooo_s": "s", "harness.verify_s": "s",
    "memory.l1_hit_rate": "ratio", "memory.llc_hit_rate": "ratio",
    "memory.hbm_bytes": "bytes",
    "cpi.issued_frac": "ratio", "cpi.queue_frac": "ratio",
    "cpi.reconfig_frac": "ratio",
    "host.raw_cpu_s": "s", "host.calib_s": "s",
    "trace.overhead_frac": "ratio",
}

# Thread pools would make the process multi-threaded, which the
# calibration's thread clock cannot see; pin them before numpy loads.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Tracer:
    """In-memory span recorder, written out once when the run ends.

    ``start``/``end`` are thread CPU seconds; ``raw_s`` is the span's CPU
    time without the calibration handler's, ``seconds`` the same time
    calibrated.
    """

    def __init__(self, calib: Calibrator):
        self.calib = calib
        self.spans: list = []
        self._marks: dict = {}

    def open(self, name, parent=None, point=None) -> int:
        mark = self.calib.mark()
        span_id = len(self.spans)
        self._marks[span_id] = mark
        self.spans.append({"id": span_id, "name": name, "parent": parent,
                           "point": point, "start": mark[0]})
        return span_id

    def close(self, span_id: int) -> None:
        mark = self.calib.mark()
        raw, seconds = self.calib.interval(self._marks.pop(span_id), mark)
        self.spans[span_id].update(end=mark[0], raw_s=raw, seconds=seconds)

    def phase_hook(self, parent: int, point: str):
        """An ``on_phase`` callback plus the call that ends the last phase."""
        current: list = []

        def on_phase(name: str) -> None:
            if current:
                self.close(current.pop())
            current.append(self.open(name, parent, point))

        def finish() -> None:
            if current:
                self.close(current.pop())

        return on_phase, finish

    def children(self, parent: int) -> dict:
        return {s["name"]: s["seconds"] for s in self.spans[parent + 1:]
                if s["parent"] == parent}


@contextmanager
def span(tracer, name, parent=None, point=None):
    if tracer is None:
        yield None
        return
    span_id = tracer.open(name, parent, point)
    try:
        yield span_id
    finally:
        tracer.close(span_id)


def dataset_seeds(inputs, seed: int) -> dict:
    """The generator seed of each input, derived from ``seed``.

    A traversal input takes the first of ``seed``, ``seed + SEED_STRIDE``,
    ... whose graph lets vertex 0 reach at least ``MIN_REACH`` of the
    vertices. The percolated road grid leaves vertex 0 in a small
    cluster for a third to a half of all seeds, and a traversal that ends after a
    few levels is not the high-diameter workload the input stands for.
    """
    from repro.datasets.graphs import make_graph
    from repro.harness.run import default_scale
    from repro.workloads.bfs import bfs_reference

    def reach(candidate):
        graph = make_graph(code, scale=default_scale(app, code),
                           seed=candidate)
        return (bfs_reference(graph, 0) >= 0).mean()

    seeds = {}
    for app, code in inputs:
        candidate = seed
        if app in TRAVERSALS:
            while reach(candidate) < MIN_REACH:
                candidate += SEED_STRIDE
        seeds[app, code] = candidate
    return seeds


def _gmean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One benchmark run: set-up, the timed passes, and the metrics."""

    def __init__(self, args, run_dir: Path, calib: Calibrator):
        self.args = args
        self.run_dir = run_dir
        self.calib = calib
        self.inputs = WORKLOADS[args.workload]
        self.seeds = dataset_seeds(self.inputs, args.seed)
        self.points = [(app, code, system) for app, code in self.inputs
                       for system in SYSTEMS]
        self.tracer = Tracer(calib) if args.trace else None
        self.prepared: dict = {}
        self.cache = None
        # the artifact cache's counters after set-up and after pass 1
        self.counters: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.passes: list = []    # per pass, the records of its operations
        self.cycles: dict = {}
        self.exact: dict = {}

    @staticmethod
    def pid(point) -> str:
        return "/".join(point)

    # -- set-up ---------------------------------------------------------

    def set_up(self) -> dict:
        """Repeat the prepare + cold-compile set-up; medians per part.

        Each round starts from an empty artifact cache; the last round's
        cache and prepared inputs serve the timed passes.
        """
        from repro.cache import configure_artifact_cache
        from repro.harness.run import (build_cgra_program, prepare_input,
                                       resolve_config)
        prep, cold = [], []
        for r in range(SETUP_ROUNDS):
            self.cache = configure_artifact_cache(self.run_dir / f"cache-{r}")
            with span(self.tracer, "setup round", None, str(r)) as round_id:
                m0 = self.calib.mark()
                prepared = {}
                for app, code in self.inputs:
                    with span(self.tracer, "prepare_input", round_id,
                              f"{app}/{code}"):
                        prepared[app, code] = prepare_input(
                            app, code, seed=self.seeds[app, code])
                m1 = self.calib.mark()
                for app, code in self.inputs:
                    config = resolve_config(app)
                    for system in CGRA_SYSTEMS:
                        with span(self.tracer, "build_cgra_program", round_id,
                                  f"{app}/{code}/{system}"):
                            build_cgra_program(prepared[app, code], config,
                                               system, "decoupled")
                m2 = self.calib.mark()
            prep.append(self.calib.interval(m0, m1)[1])
            cold.append(self.calib.interval(m1, m2)[1])
        self.prepared = prepared
        self.counters.append(dict(self.cache.counters))
        return {"prepare_s": statistics.median(prep),
                "cold_s": statistics.median(cold)}

    # -- the timed passes -----------------------------------------------

    def _call(self, point, traced: bool, pass_span):
        """One operation; returns its record, or None if it failed."""
        from repro.harness.run import run_experiment
        app, code, system = point
        pid = self.pid(point)
        on_phase = finish = None
        if traced:
            point_span = self.tracer.open("run_experiment", pass_span, pid)
            on_phase, finish = self.tracer.phase_hook(point_span, pid)
        self.attempted += 1
        start = self.calib.mark()
        try:
            result = run_experiment(app, code, system,
                                    prepared=self.prepared[app, code],
                                    seed=self.seeds[app, code], check=True,
                                    engine=ENGINE, codegen=CODEGEN,
                                    on_phase=on_phase)
        except Exception as exc:  # every failure is counted, the run goes on
            self.failed += 1
            self.problems.append(f"{pid}: {type(exc).__name__}: {exc}")
            result = None
        raw, seconds = self.calib.interval(start)
        if traced:
            finish()
            self.tracer.close(point_span)
        gc.collect()
        if result is None:
            return None
        cycles = float(result.cycles)
        if self.cycles.setdefault(pid, cycles) != cycles:
            self.problems.append(f"{pid}: cycles {cycles!r} differ from "
                                 f"{self.cycles[pid]!r} earlier in this run")
        if pid not in self.exact:
            self.exact[pid] = self._exact(result)
        return {"pid": pid, "raw": raw, "seconds": seconds, "traced": traced,
                "phases": self.tracer.children(point_span) if traced else {}}

    @staticmethod
    def _exact(result) -> dict:
        """Simulated (host-independent) statistics of one point."""
        raw = result.raw
        if result.system not in CGRA_SYSTEMS:
            return {"cycles": float(result.cycles)}
        return {
            "cycles": float(result.cycles),
            "pe_quanta": raw.engine_stats.get("pe_quanta", 0),
            "bound": raw.engine_stats.get("codegen_stages", 0),
            "fallback": raw.engine_stats.get("codegen_fallback", 0),
            "l1_hits": sum(s["hits"] for s in raw.l1_stats),
            "l1_misses": sum(s["misses"] for s in raw.l1_stats),
            "llc_hits": raw.llc_stats["hits"],
            "llc_misses": raw.llc_stats["misses"],
            "hbm_bytes": raw.mem_stats["bytes"],
            "cpi": raw.merged_cpi_stack(),
        }

    def measure(self) -> None:
        """Run whole passes over the points for about ``--seconds``."""
        pass_s = PASS_S[self.args.workload] * (2 if self.tracer else 1)
        for n in range(max(1, round(self.args.seconds / pass_s))):
            records = []
            with span(self.tracer, "pass", None, str(n)) as pass_span:
                for i, point in enumerate(self.points):
                    # Alternate which call of a point runs first, so
                    # first-call costs fall on both sides of the
                    # tracing-overhead ratio.
                    modes = (False, True) if self.tracer else (False,)
                    if (i + n) % 2:
                        modes = modes[::-1]
                    for traced in modes:
                        records.append(self._call(point, traced, pass_span))
            self.passes.append([r for r in records if r])
            if n == 0:
                self.counters.append(dict(self.cache.counters))

    # -- metrics --------------------------------------------------------

    def total(self, traced: bool, value=lambda r: r["seconds"],
              points=None) -> float:
        """Median over passes of a per-operation value summed per pass."""
        return statistics.median(
            sum(value(r) for r in records if r["traced"] == traced
                and (points is None or r["pid"] in points))
            for records in self.passes)

    def _speedups(self) -> tuple:
        speedup, vs_static = [], []
        for app, code in self.inputs:
            c = {s: self.cycles.get(f"{app}/{code}/{s}") for s in SYSTEMS}
            if None not in c.values():
                speedup.append(c["multicore"] / c["fifer"])
                vs_static.append(c["static"] / c["fifer"])
        return _gmean(speedup), _gmean(vs_static)

    def end_to_end(self, setup_s: float) -> dict:
        speedup, vs_static = self._speedups()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"host_s": self.total(traced=False), "setup_s": setup_s,
                "peak_rss_mb": peak_kb / 1024.0,
                "fifer_speedup": speedup, "fifer_vs_static": vs_static}

    def per_layer(self, setup: dict, host_s: float) -> dict:
        from repro.codegen import emitted_count

        def phase(name, points=None):
            return self.total(True, lambda r: r["phases"].get(name, 0.0),
                              points)

        after_setup, after_pass = self.counters
        cgra = {self.pid(p) for p in self.points if p[2] in CGRA_SYSTEMS}
        ooo = {self.pid(p) for p in self.points if p[2] not in CGRA_SYSTEMS}
        fifer = [v for pid, v in self.exact.items() if pid.endswith("/fifer")]
        cgra_exact = [v for pid, v in self.exact.items() if pid in cgra]
        simulate_s = phase("simulating", cgra)
        pe_quanta = sum(v["pe_quanta"] for v in cgra_exact)
        kcycles = sum(v["cycles"] for v in cgra_exact) / 1e3
        cpi: dict = {}
        for v in fifer:
            for bucket, cycles in v["cpi"].items():
                cpi[bucket] = cpi.get(bucket, 0.0) + cycles
        cpi_total = sum(cpi.values()) or 1.0

        def rate(hits, misses):
            h = sum(v[hits] for v in fifer)
            total = h + sum(v[misses] for v in fifer)
            return h / total if total else 0.0

        return {
            "datasets.prepare_s": setup["prepare_s"],
            "compile.cold_s": setup["cold_s"],
            "compile.warm_s": phase("compiling", cgra),
            # hits of pass 1; misses of the last set-up round and pass 1
            "cache.mapping_hits": (after_pass.get("mapping.hit", 0)
                                   - after_setup.get("mapping.hit", 0)),
            "cache.mapping_misses": after_pass.get("mapping.miss", 0),
            "codegen.emitted": emitted_count(),
            "codegen.bound_stages": sum(v["bound"] for v in cgra_exact),
            "codegen.fallback_stages": sum(v["fallback"] for v in cgra_exact),
            "core.simulate_s": simulate_s,
            "core.pe_quanta": pe_quanta,
            "core.us_per_pe_quantum": (simulate_s * 1e6 / pe_quanta
                                       if pe_quanta else 0.0),
            "core.sim_kcycles_per_s": (kcycles / simulate_s
                                       if simulate_s else 0.0),
            "baselines.ooo_s": (phase("compiling", ooo)
                                + phase("simulating", ooo)),
            "harness.verify_s": phase("verifying"),
            "memory.l1_hit_rate": rate("l1_hits", "l1_misses"),
            "memory.llc_hit_rate": rate("llc_hits", "llc_misses"),
            "memory.hbm_bytes": sum(v["hbm_bytes"] for v in fifer),
            "cpi.issued_frac": cpi.get("issued", 0.0) / cpi_total,
            "cpi.queue_frac": cpi.get("queue", 0.0) / cpi_total,
            "cpi.reconfig_frac": cpi.get("reconfig", 0.0) / cpi_total,
            "host.raw_cpu_s": self.total(False, lambda r: r["raw"]),
            "host.calib_s": statistics.mean(self.calib.samples),
            "trace.overhead_frac": (self.total(traced=True) / host_s - 1.0
                                    if host_s else 0.0),
        }

    # -- determinism across runs ----------------------------------------

    def check_against_record(self, version: str) -> None:
        """Compare every point's cycles with earlier runs on its inputs.

        The first complete run of a workload on one set of input seeds
        and one code version in a checkout writes the record; every
        later run must reproduce it exactly.
        """
        records = WORK / "cycles"
        records.mkdir(parents=True, exist_ok=True)
        inputs = "-".join(str(self.seeds[i]) for i in self.inputs)
        path = records / (f"{self.args.workload}-{inputs}"
                          f"-{version[:16]}.json")
        if path.exists():
            earlier = json.loads(path.read_text())
            for pid, cycles in sorted(self.cycles.items()):
                if pid in earlier and earlier[pid] != cycles:
                    self.problems.append(
                        f"{pid}: cycles {cycles!r} differ from "
                        f"{earlier[pid]!r} in an earlier run ({path.name})")
            return
        if len(self.cycles) == len(self.points):
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self.cycles, sort_keys=True))
            os.replace(tmp, path)

    def write_trace(self) -> Path:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps({
            "workload": self.args.workload, "seed": self.args.seed,
            "clock": "thread_time", "nominal_calib_s": NOMINAL_S,
            "spans": self.tracer.spans}, indent=1))
        return path


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    for var in list(os.environ):
        if var == "REPRO_CODEGEN" or var.startswith("REPRO_BENCH_"):
            del os.environ[var]
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache-env")
    # Byte-compile outside the timed import so that the first run in a
    # fresh checkout does not pay for it in setup_s.
    compileall.compile_dir(str(src / "repro"), quiet=1)
    sys.path.insert(0, str(src))
    calib = Calibrator()
    calib.arm()
    try:
        start = calib.mark()
        import repro.harness.run  # noqa: F401
        from repro.cache import code_version
        # The source digest is part of the first compile against a disk
        # cache, so it counts toward set-up.
        version = code_version()
        raw, seconds = calib.interval(start)
        # Interpreter start-up ran before the calibration was armed; it
        # is scaled at the import's calibration.
        import_s = (_START_CPU + raw) * seconds / raw

        bench = Bench(args, run_dir, calib)
        setup = bench.set_up()
        setup_s = import_s + setup["prepare_s"] + setup["cold_s"]
        bench.measure()
    finally:
        calib.disarm()
        shutil.rmtree(run_dir, ignore_errors=True)
    bench.check_against_record(version)
    e2e = bench.end_to_end(setup_s)
    print("input seeds: " + ", ".join(
        f"{app}/{code}={s}" for (app, code), s in bench.seeds.items()))
    _print_table(f"workload {args.workload} seed {args.seed}: "
                 f"{bench.attempted} operations, {bench.failed} failed, "
                 f"{len(bench.passes)} pass(es); raw host "
                 f"{bench.total(False, lambda r: r['raw']):.4g} s, "
                 f"calibration burst {statistics.mean(calib.samples):.4g} s",
                 e2e, END_TO_END_UNITS)
    metrics, units = e2e, END_TO_END_UNITS
    if bench.tracer is not None:
        metrics = bench.per_layer(setup, e2e["host_s"])
        units = PER_LAYER_UNITS
        _print_table("per layer (traced calls)", metrics, units)
        print(f"  spans written to {bench.write_trace()}")
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not bench.problems and len(bench.cycles) == len(bench.points)
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
