"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sparsemix checkout; the package is imported from its
``src/`` directory.  One process runs one workload (see ``workloads.py``) as
a closed loop with one client for S seconds, and for at least MIN_CALLS
user-level calls so that the p90 latency has ten samples beyond it.  Every
output is checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
provenance and a summary.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs a fixed number of units, ``ceil(S * TRACE_RATE)`` of the
workload, each twice: once plain and once with the span tracer
(``spans.py``) installed, in alternating order.  The fixed amount of work
makes every per-layer count exact, so a faster layer never shows up as
more calls in another.  It reports the per-layer metrics, takes the
tracing overhead from the two halves, and counts a traced unit whose
outputs differ from the plain one as failed.  The spans go to
``.bench_out/`` as gzipped JSON lines.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BEYOND = 10  # samples that must rank above a reported percentile
MIN_CALLS = 100  # so that p90 has BEYOND samples above it
MAX_SECONDS = 150.0  # stop early rather than run past the harness limit
SETUP_PROBES = 3  # before and again after the measured loop, so set-up sees two machine states


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile of samples; raises unless at least BEYOND
    samples rank above it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < BEYOND:
        raise ValueError(f"p{q * 100:g} of {n} samples has {n - rank} beyond it; need {BEYOND}")
    return ordered[rank - 1]


def _import_package():
    """Import sparsemix from this checkout's src/, never from elsewhere."""
    if not (SRC / "sparsemix" / "__init__.py").is_file():
        sys.exit(f"error: no sparsemix package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sparsemix
    import sparsemix.cli  # noqa: F401  (part of the set-up a CLI user pays)

    if SRC not in Path(sparsemix.__file__).resolve().parents:
        sys.exit(f"error: imported sparsemix from {sparsemix.__file__}, not {SRC}")
    return sparsemix


def _probe(workload: str, seed: int) -> int:
    """Set-up in a fresh interpreter: import, build the first inputs, report."""
    start = time.perf_counter()
    _import_package()
    import_s = time.perf_counter() - start
    import workloads

    wl = workloads.WORKLOADS[workload](seed, OUT / "probe")
    wl.inputs(0)
    print(f"ready {import_s!r}", flush=True)
    return 0


def measure_setup(workload: str, seed: int, walls: list[float], imports: list[float]) -> None:
    """Wall time from spawning an interpreter until it is ready to make the
    first call, and its import time, for SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        imports.append(float(line.split()[1]))


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _llc_bytes() -> int | None:
    """Size of the largest cache level of CPU 0 (read-only, from sysfs)."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import sparsemix

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sparsemix": sparsemix.__version__,
        "llc_bytes": _llc_bytes(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


class Run:
    """Counts and timings of one benchmark run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.latencies: list[float] = []
        self.unit_items: list[int] = []
        self.unit_busy: list[float] = []
        self.units = 0

    def _errors(self, unit) -> None:
        for call in unit.calls:
            if call.error is not None and self.failed < 5:
                print(f"call failed: {call.error}", file=sys.stderr)

    def check(self, i: int, unit, pool: bool = True) -> None:
        try:
            failed = self.wl.check(i, unit, pool)
        except (ValueError, LookupError, TypeError) as exc:  # output too malformed to parse
            print(f"unit {i}: unreadable output: {exc!r}", file=sys.stderr)
            failed = len(unit.calls)
        self.attempted += len(unit.calls)
        if failed:
            self._errors(unit)
            print(f"unit {i}: {failed} call(s) failed their check", file=sys.stderr)
        self.failed += failed

    def plain(self, seconds: float) -> None:
        """Untraced: one warm-up unit, then timed units for `seconds` and at
        least MIN_CALLS calls."""
        self.check(0, self.wl.run_unit(0))
        start = time.perf_counter()
        i = 1
        while True:
            unit = self.wl.run_unit(i)
            self.check(i, unit)
            self.latencies.extend(c.seconds for c in unit.calls if c.latency)
            self.unit_items.append(unit.items)
            self.unit_busy.append(sum(c.seconds for c in unit.calls))
            self.units += 1
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_SECONDS or (elapsed >= seconds and len(self.latencies) >= MIN_CALLS):
                break

    def traced(self, tracer, units: int) -> int:
        """Units 1..units each plain and traced, in alternating order;
        returns the plain wall time in ns."""
        self.check(0, self.wl.run_unit(0))
        plain_ns = 0
        for i in range(1, units + 1):
            outputs = {}
            for traced in ((False, True) if i % 2 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        with tracer.span():
                            unit = self.wl.run_unit(i)
                    finally:
                        tracer.uninstall()
                else:
                    t0 = time.perf_counter_ns()
                    unit = self.wl.run_unit(i)
                    plain_ns += time.perf_counter_ns() - t0
                self.check(i, unit, pool=not traced)
                outputs[traced] = unit.outputs()
            if outputs[True] != outputs[False]:
                print(f"unit {i}: traced outputs differ from untraced", file=sys.stderr)
                self.failed += 1
            self.units += 1
        return plain_ns


def _metric_specs(key: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sparsemix benchmark: one workload, one JSON result")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("SPARSEMIX_WORKERS", None)  # the default worker policy decides
    if args.probe:
        return _probe(args.workload, args.seed)
    _import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    walls: list[float] = []
    imports: list[float] = []
    measure_setup(args.workload, args.seed, walls, imports)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = Run(wl)
        if args.trace:
            tracer = spans.Tracer()
            plain_ns = run.traced(tracer, math.ceil(args.seconds * wl.TRACE_RATE))
            recorded = tracer.arrays()
            measured = tracer.report(recorded, plain_ns)
            tracer.write_jsonl(recorded, OUT / f"spans-{tag}.jsonl.gz")
            specs = _metric_specs("per_layer")
        else:
            run.plain(args.seconds)
            measured = {
                "items_per_s": sum(run.unit_items) / sum(run.unit_busy),
                "call_p50_ms": percentile(run.latencies, 0.5) * 1e3,
                "call_p90_ms": percentile(run.latencies, 0.9) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            specs = _metric_specs("end_to_end")
        problems = wl.finish()
        measure_setup(args.workload, args.seed, walls, imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured["setup_s"] = statistics.median(walls)
    measured["setup.import_s"] = statistics.median(imports)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "latency_calls": len(run.latencies),
        "units": run.units,
        "fail_frac": run.failed / run.attempted,
        "setup_walls_s": walls,
        "import_s": imports,
    }
    prov = provenance(args.seed)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"provenance": prov, "summary": summary, "metrics": measured}, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"summary": summary}))
    result = {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {spec["name"]: {"value": measured[spec["name"]], "unit": spec["unit"]} for spec in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
