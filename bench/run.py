"""End-to-end benchmark of the zonotile CLI.

Usage, from the root of the repository:

    python3 bench/run.py --workload scenes --seed 1 --seconds 35 --trace 0

The benchmark is one client in a closed loop: it calls
``zonotile.cli.main([...])`` in this process on JSON files written at
set-up, one call after the other, and checks every output.  Workloads are
defined in ``workloads.py``:

* ``scenes``: ``verify`` and ``render`` on a few large arrangements, where
  the covering sweep and exact field arithmetic do almost all the work.
* ``corpus``: ``decide`` then ``verify`` on many small polygons with a
  heavy tail of slow ones.
* ``decide``: ``decide``, ``canon`` and ``check`` on a mixed stream; no
  covering work at all, so verifier changes should leave it flat.

A run sets up (imports ``zonotile.cli`` afresh and writes the inputs)
several times before its op loop and as many times after it, and reports
the median as ``setup_s``.  With ``--trace 0``
it then runs every op once, and keeps running ops until ``--seconds`` have
passed, always picking the op that has taken the least time so far.  Each
op's time is the median of its samples, ``wall_s`` is the sum of those
over all ops (one pass) and ``item_ms_gmean`` the geometric mean over
items (a scene, or one polygon with its ops).

The host this runs on changes speed by up to a factor of two, over seconds
and minutes, whatever process runs on it.  So every end-to-end time is
scaled to a reference host speed: a fixed pure-Python yardstick (see
``probes.HostSpeed``) is timed four times a second throughout set-up and
the op loop, and each timing is multiplied by YARDSTICK_REF_S over the
mean yardstick time during it, or, for a timing too short to hold enough
samples, the median yardstick time around it.  The unscaled values go into
the report.

With ``--trace 1`` it runs untraced passes, one traced pass (see
``tracing.py``) and the field probes, and reports per-layer metrics; these
are not scaled.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
a report with the per-command timings, the host calibration, the seeds,
digests of the inputs and outputs, and the first failures.  Inputs,
outputs and the report are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# an op that has this many timings is not run again
MAX_SAMPLES = 25

# name, unit, better: every end-to-end metric, on every workload
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("item_ms_gmean", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


class ProgramMissing(Exception):
    """The checkout has no zonotile sources to benchmark."""


def load_program(root: Path) -> SimpleNamespace:
    """Import zonotile.cli afresh from ``root/src`` and return what the
    workloads use."""
    src = root / "src"
    if not (src / "zonotile" / "cli.py").is_file():
        raise ProgramMissing(f"no zonotile sources under {src}")
    for name in [n for n in sys.modules if n == "zonotile" or n.startswith("zonotile.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("zonotile.cli")
    pkg = sys.modules["zonotile"]
    if Path(pkg.__file__).resolve().parent != (src / "zonotile").resolve():
        raise ProgramMissing(f"imported zonotile from {pkg.__file__}, not from {src}")
    return SimpleNamespace(
        cli=cli,
        jsonio=importlib.import_module("zonotile.jsonio"),
        Field=pkg.Field,
        FieldElement=pkg.FieldElement,
        RATIONALS=pkg.RATIONALS,
        PlaneVector=pkg.PlaneVector,
        PlaneLattice=pkg.PlaneLattice,
        Zonotope=pkg.Zonotope,
        ZonotileError=pkg.ZonotileError,
        vector=pkg.vector,
        rational_rank=pkg.rational_rank,
        decide_multitiling=pkg.decide_multitiling,
    )


def setup(root: Path, work: Path, workload: str, seed: int, corpus_seed: int, tiny: bool, clock):
    """Import the program and write the workload's inputs; returns the
    program namespace, the workload and the seconds it took on ``clock``."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    t0 = clock()
    zt = load_program(root)
    if workload == "corpus":
        wl = workloads.build_corpus(zt, seed, work, tiny=tiny, stream_seed=corpus_seed)
    else:
        wl = workloads.WORKLOADS[workload](zt, seed, work, tiny=tiny)
    return zt, wl, clock() - t0


class Runner:
    """Runs ops through the CLI, times them and checks their output."""

    def __init__(self, zt, wl: workloads.Workload, clock):
        self.zt = zt
        self.wl = wl
        self.clock = clock
        self.times: dict[str, list[float]] = {op.id: [] for op in wl.ops}
        # the wall-clock interval of each timing, to scale it by host speed
        self.spans: dict[str, list[tuple[float, float]]] = {op.id: [] for op in wl.ops}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.stdout_sha = hashlib.sha256()
        self.svg_sha = hashlib.sha256()
        self.outputs: dict[str, str] = {}

    def run_op(self, op: workloads.Op) -> float:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            t0 = self.clock()
            try:
                code = self.zt.cli.main(list(op.argv))
            except Exception:  # a raising op is a failed op, and is still timed
                code = None
                error = traceback.format_exc(limit=4)
            dt = self.clock() - t0
            end = time.perf_counter()
        text = out.getvalue()
        if error is None:
            try:
                op.check(code, text, op.ctx)
            except Exception as exc:  # a wrong or unreadable output fails the op
                error = f"{type(exc).__name__}: {exc}; stderr: {err.getvalue()[-300:]}"
        self.attempted += 1
        self.times[op.id].append(dt)
        self.spans[op.id].append((start, end))
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"op": op.id, "argv": op.argv, "error": error})
        if op.id not in self.outputs:
            self.outputs[op.id] = text
            self.stdout_sha.update(op.id.encode() + b"\0" + text.encode())
            if op.svg is not None and op.svg.exists():
                self.svg_sha.update(op.id.encode() + b"\0" + op.svg.read_bytes())
        return dt

    def one_pass(self) -> float:
        t0 = time.perf_counter()
        for op in self.wl.ops:
            if workloads.runnable(op):
                self.run_op(op)
        return time.perf_counter() - t0

    def fill(self, deadline: float) -> None:
        """Until the deadline, run the op that has taken the least time so
        far.  Cheap ops thus gain samples spread over the whole run, instead
        of one per cycle through every op, slow ones included.  An op stops
        once it has MAX_SAMPLES samples or its median would not end before
        the deadline."""
        heap = [(sum(self.times[op.id]), i) for i, op in enumerate(self.wl.ops)
                if self.times[op.id] and workloads.runnable(op)]
        heapq.heapify(heap)
        while heap:
            _, i = heapq.heappop(heap)
            op = self.wl.ops[i]
            samples = self.times[op.id]
            if len(samples) >= MAX_SAMPLES or time.perf_counter() + statistics.median(samples) > deadline:
                continue
            self.run_op(op)
            heapq.heappush(heap, (sum(samples), i))

    # -- metrics ------------------------------------------------------------

    def op_median(self, op, scale=None) -> float:
        """The median of the op's timings, each first multiplied by
        ``scale(start, end)`` of its wall-clock interval if scale is given."""
        if scale is None:
            return statistics.median(self.times[op.id])
        return statistics.median(dt * scale(*span) for dt, span in zip(self.times[op.id], self.spans[op.id]))

    def timed_ops(self, kind=None):
        return [op for op in self.wl.ops if self.times[op.id] and (kind is None or op.kind == kind)]

    def end_to_end(self, setup_s: float, scale=None) -> dict[str, float]:
        items: dict[str, float] = {}
        for op in self.timed_ops():
            items[op.item] = items.get(op.item, 0.0) + self.op_median(op, scale)
        return {
            "setup_s": setup_s,
            "wall_s": sum(items.values()),
            "item_ms_gmean": statistics.geometric_mean(items.values()) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_command(self, scale) -> dict[str, dict]:
        """Per-command timings, each with its sample count n."""
        out: dict[str, dict] = {}
        for kind in ("verify", "render", "decide", "canon", "check"):
            values = [self.op_median(op, scale) for op in self.timed_ops(kind)]
            if not values:
                continue
            out[f"{kind}_s"] = {"value": sum(values), "unit": "s", "n": len(values)}
            out[f"{kind}_ms_p50"] = {"value": statistics.median(values) * 1e3, "unit": "ms", "n": len(values)}
            # p90 only where at least ten samples lie above it
            if len(values) >= 100:
                p90 = statistics.quantiles(values, n=10)[8]
                out[f"{kind}_ms_p90"] = {"value": p90 * 1e3, "unit": "ms", "n": len(values)}
        out["fail_ratio"] = {"value": self.failed / self.attempted if self.attempted else 0.0,
                             "unit": "ratio", "n": self.attempted}
        return out


def traced_pass(runner: Runner, tracer: tracing.Tracer) -> dict[str, float]:
    """One pass over every op with the tracer installed; returns the
    per-layer numbers gathered from the ops' outputs and the tracer."""
    cells = faces = svg_bytes = canons = canon_decides = 0
    decide_calls = tracer.stats["criteria.decide_multitiling"]
    tracer.install()
    try:
        start = time.perf_counter()
        for op in runner.wl.ops:
            if not workloads.runnable(op):
                continue
            before = decide_calls[0]
            runner.run_op(op)
            if op.kind == "canon" and op.ctx.get("positive"):
                canons += 1
                canon_decides += decide_calls[0] - before
        end = time.perf_counter()
    finally:
        tracer.uninstall()
    for op in runner.wl.ops:
        if op.kind == "verify" and op.id in runner.outputs:
            try:
                cells += json.loads(runner.outputs[op.id])["cells_checked"]
            except (ValueError, KeyError):
                pass  # a failed op, already counted in "failed"
        if op.svg is not None and op.svg.exists():
            svg = op.svg.read_text(encoding="utf-8")
            faces += svg.count('stroke="none"/>')
            svg_bytes += len(svg.encode())
    out = tracer.layer_metrics(end - start, tracer.unattributed(start, end))
    out["covering.cells_checked"] = cells
    out["render.faces"] = faces
    out["render.svg_bytes"] = svg_bytes
    out["criteria.decides_per_canon"] = canon_decides / canons if canons else 0.0
    if not canons:
        tracer.absent["criteria.decides_per_canon"] = "no canon op returned a lattice (reported as 0)"
    return out


def host_info(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
    }


def _commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        corpus_seed: int = workloads.CORPUS_STREAM_SEED, tiny: bool = False) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (result line, report)."""
    work = root / ".bench_out" / f"{workload}-s{seed}-t{int(trace)}"
    calibration_start = probes.calibrate()
    host = probes.HostSpeed()
    setups, setup_spans = [], []

    def set_up():
        start = time.perf_counter()
        zt, wl, took = setup(root, work, workload, seed, corpus_seed, tiny, clock=host.clock)
        setups.append(took)
        setup_spans.append((start, time.perf_counter()))
        return zt, wl

    # the yardstick samples host speed only in the untraced run: the traced
    # run reports no end-to-end times, and the tracer would see the samples
    with contextlib.nullcontext() if trace else host:
        for _ in range(1 if trace else SETUP_REPEATS):
            zt, wl = set_up()
        runner = Runner(zt, wl, clock=host.clock)
        gc.collect()
        start = time.perf_counter()
        if not trace:
            runner.one_pass()
            runner.fill(start + seconds)
            measured_s = time.perf_counter() - start
            # set up again at the end, so that setup_s sees the host at
            # both ends of the run; the measured ops are done with the inputs
            for _ in range(SETUP_REPEATS):
                set_up()
    report: dict = {
        "workload": workload,
        "seeds": dict(wl.seeds),
        "seconds": seconds,
        "trace": int(trace),
        "host": host_info(root),
        "calibration_start_s": calibration_start,
        "setup_samples_s": setups,
    }
    if not trace:
        setup_s = statistics.median(t * host.scale(*span) for t, span in zip(setups, setup_spans))
        metrics = runner.end_to_end(setup_s, host.scale)
        units = {n: u for n, u, _ in E2E_METRICS}
        report["per_command"] = runner.per_command(host.scale)
        report["unscaled"] = runner.end_to_end(statistics.median(setups))
        report["yardstick"] = {"samples": len(host.took), "median_s": statistics.median(host.took),
                               "ref_s": probes.YARDSTICK_REF_S}
        report["measured_s"] = measured_s
    else:
        untraced = [runner.one_pass()]
        while sum(untraced) < seconds / 3:
            untraced.append(runner.one_pass())
        tracer = tracing.Tracer()
        metrics = traced_pass(runner, tracer)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
        metrics.update(probes.field_probes(zt, seed))
        units = {n: u for n, u, _ in tracing.LAYER_METRICS}
        tracer.dump(work / "trace.json")
        report["untraced_pass_s"] = untraced
        report["self_s_total"] = tracer.self_total()
        report["spans"] = len(tracer.spans)
        report["absent"] = tracer.absent
        report["measured_s"] = time.perf_counter() - start
    report["samples_per_op"] = {"min": min(len(v) for v in runner.times.values() if v),
                                "max": max(len(v) for v in runner.times.values())}
    report["calibration_end_s"] = probes.calibrate()
    report["sha256"] = {"inputs": wl.inputs_sha256, "stdout": runner.stdout_sha.hexdigest(),
                        "svg": runner.svg_sha.hexdigest()}
    report["fail_ratio"] = runner.failed / runner.attempted
    report["failures"] = runner.failures
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (work / "report.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corpus-seed", type=int, default=workloads.CORPUS_STREAM_SEED,
                        help="seed of the polygon stream the corpus workload takes its polygons from")
    args = parser.parse_args(argv)
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             HERE.parent, corpus_seed=args.corpus_seed)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
