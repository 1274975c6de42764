"""Benchmark of alcove: four workloads, end-to-end metrics, and a traced
per-layer run.

    python3 bench/run.py --workload fusion-tables --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  A run is one process on one thread.  It measures set-up several
times, then repeats rounds of the workload while the next round fits in
``--seconds``.  Every round imports the library afresh, so its caches start
empty and every round does identical work; a round's inputs come from the
seed alone.  Times are converted to reference machine speed (speed.py).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` or the
per-layer metrics with ``--trace 1``.  The line before it records the
provenance of the run.  RATIONALE.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("lie", "intlinalg", "affine", "groupring", "fusion", "resolution", "prequant", "cli")
SETUP_SAMPLES = 5
ERRORS_SHOWN = 5


def fresh_library() -> types.SimpleNamespace:
    """Import alcove anew, so that every module-level and per-object cache
    starts empty, as in a new process."""
    for name in [n for n in sys.modules if n == "alcove" or n.startswith("alcove.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(package=importlib.import_module("alcove"), modules=MODULES)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"alcove.{name}"))
    return lib


def set_up(workload, tracer=None):
    """Import the library and build the root data of the workload's types.
    Returns the library and the start and end of set-up."""
    start = perf_counter()
    lib = fresh_library()
    if tracer is not None:
        tracer.install(lib)
    for name in workload.types:
        lib.lie.build_lie_data(name)
    return lib, (start, perf_counter())


@dataclass
class Round:
    """Raw time points and outcomes of one round."""

    setup: tuple[float, float]
    span: tuple[float, float] = (0.0, 0.0)
    ops: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    units: int = 0
    errors: list[str] = field(default_factory=list)
    tracer: object = None  # the Tracer of a traced round
    peak_rss_mb: float = 0.0


def run_round(workload, plan, tracer=None) -> Round:
    """One cold round: set-up, then every operation, timed and checked.  A
    failed operation or check is counted and the round goes on."""
    lib, setup = set_up(workload, tracer)
    result = Round(setup)
    ops = workload.ops(plan)
    start = perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.job = index
        result.attempted += 1
        t0 = perf_counter()
        try:
            output = op.work(lib)
            result.ops.append((t0, perf_counter()))
            result.units += op.check(output)
        except Exception as exc:  # a failure is counted, never fatal
            if len(result.ops) < result.attempted:
                result.ops.append((t0, perf_counter()))
            result.failed += 1
            result.errors.append(f"{op.job}: {type(exc).__name__}: {exc}"[:300])
    result.span = (start, perf_counter())
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.job = None
        result.tracer = tracer
    return result


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set-up samples, then rounds while the next one fits in ``seconds``.
    A traced run alternates untraced and traced rounds, at least one each."""
    from spans import Tracer

    start = perf_counter()
    lib, _ = set_up(workload)  # compiles bytecode on a first run; not measured
    plan = workload.plan(lib, seed)
    del lib
    setups = [set_up(workload)[1] for _ in range(SETUP_SAMPLES)]
    rounds: list[Round] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        gc.collect()
        rounds.append(run_round(workload, plan, Tracer() if traced else None))
        longest = max(r.span[1] - r.setup[0] for r in rounds)
        if trace and len(rounds) < 2:
            continue
        if perf_counter() - start + longest > seconds:
            break
    return setups, rounds


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(setups, rounds: list[Round], seconds) -> dict:
    """``seconds(start, end)`` turns a pair of time points into a duration."""
    latencies = [seconds(*op) for r in rounds for op in r.ops]
    return {
        "setup_s": statistics.median(seconds(*s) for s in setups + [r.setup for r in rounds]),
        "wall_s": statistics.median(seconds(*r.span) for r in rounds),
        "op_p50_ms": 1000 * quantile(latencies, 0.50),
        "op_p95_ms": 1000 * quantile(latencies, 0.95),
        # the first round's peak: later rounds reuse freed memory unevenly
        "peak_rss_mb": rounds[0].peak_rss_mb,
    }


def per_layer(rounds: list[Round], seconds) -> tuple[dict, dict]:
    """Counts from the first traced round, self times as medians over traced
    rounds, and the tracing overhead as traced minus untraced wall time."""
    from spans import EXACT_COUNTS

    traced = [r for r in rounds if r.tracer is not None]
    plain = [r for r in rounds if r.tracer is None]
    summaries = [r.tracer.summary(seconds) for r in traced]
    first = summaries[0]
    mismatches = sorted(
        {name for s in summaries[1:] for name in EXACT_COUNTS if s[name] != first[name]}
    )
    values = dict(first)
    for name in first:
        if name.endswith(".self_s"):
            values[name] = statistics.median(s[name] for s in summaries)
    wall = lambda rs: statistics.median(seconds(*r.span) for r in rs)  # noqa: E731
    values["trace.overhead_s"] = wall(traced) - wall(plain)
    values["trace.count_mismatches"] = len(mismatches)
    info = {"missing": traced[0].tracer.missing, "count_mismatches": mismatches,
            "traced_rounds": len(traced), "untraced_rounds": len(plain)}
    return values, info


def commit_of(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a repository."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alcove" / "__init__.py").is_file():
        print(f"error: no alcove sources under {SRC}", file=sys.stderr)
        return 2
    # every set-up compiles the sources, whatever the environment says about
    # bytecode files, and the checkout gets no __pycache__
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    origin = Path(importlib.util.find_spec("alcove").origin).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: alcove would be imported from {origin}, not {SRC}", file=sys.stderr)
        return 2
    from speed import SpeedProbe
    from workloads import workloads

    catalog = workloads()
    if args.workload not in catalog:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(catalog)}", file=sys.stderr)
        return 2
    workload = catalog[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    with SpeedProbe() as probe:
        setups, rounds = measure(workload, args.seed, args.seconds, bool(args.trace))

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    raw = lambda start, end: end - start  # noqa: E731
    if args.trace:
        values, trace_info = per_layer(rounds, probe.seconds)
    else:
        values, trace_info = end_to_end(setups, rounds, probe.seconds), None
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = [r.units for r in rounds]
    info = {
        "provenance": {
            "commit": commit_of(ROOT),
            "source_sha256": source_digest(SRC),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workload": workload.name,
        "cache": workload.cache,
        "unit": workload.unit,
        "units_per_round": units[0],
        "units_agree": len(set(units)) == 1,
        "rounds": len(rounds),
        "ops_per_round": rounds[0].attempted,
        "op_samples": sum(len(r.ops) for r in rounds),
        "fail_ratio": failed / attempted,
        "errors": [e for r in rounds for e in r.errors][:ERRORS_SHOWN],
        "raw": {k: v for k, v in end_to_end(setups, rounds, raw).items() if k != "peak_rss_mb"},
        "probe": probe.summary(),
        "trace": trace_info,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
