"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at a tiny size and checks that it passes; that a wrong
recorded digest and a corrupted certificate are counted as failures without
stopping the round; that two traced rounds give identical exact counts and
self time for all eight layers; and that a traced name the library lacks is
reported as missing.  Exits 0 when every check holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def raw(start: float, end: float) -> float:
    return end - start


def tiny_round(workload, tracer=None) -> run.Round:
    lib, _ = run.set_up(workload)
    plan = workload.plan(lib, SEED)
    return run.run_round(workload, plan, tracer)


def main() -> int:
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)

    tiny = workloads.workloads(tiny=True)
    traced: dict[str, list[run.Round]] = {}
    for name, workload in tiny.items():
        r = tiny_round(workload)
        check(f"{name} tiny pass", r.failed == 0 and r.attempted > 0 and r.units > 0,
              f"{r.attempted} ops, {r.failed} failed, {r.units} {workload.unit} {r.errors[:1]}")
        traced[name] = [tiny_round(workload, spans.Tracer()) for _ in range(2)]

    wrong = {job: "0" * 64 for job in workloads.DIGESTS}
    for name in ("fusion-tables", "resolution"):
        r = tiny_round(workloads.workloads(tiny=True, digests=wrong)[name])
        check(f"{name} wrong digest counts as failure",
              r.failed == r.attempted == len(r.ops) > 0, f"{r.failed} of {r.attempted} failed")

    corrupt = workloads.workloads(tiny=True, tamper=workloads.corrupt_certificate)["certify"]
    r = tiny_round(corrupt)
    check("corrupted certificate counts as failure",
          r.failed > 0 and r.attempted == len(r.ops), f"{r.failed} of {r.attempted} failed")

    summaries = {}
    for name, (first, second) in traced.items():
        first, second = first.tracer.summary(raw), second.tracer.summary(raw)
        summaries[name] = (first, second)
        diff = [c for c in spans.EXACT_COUNTS if first[c] != second[c]]
        check(f"{name} exact counts repeat", not diff, f"differ: {diff}" if diff else "")
    layers = {layer: max(s[f"{layer}.self_s"] for pair in summaries.values() for s in pair)
              for layer in spans.LAYERS}
    check("self time for all eight layers", all(v > 0 for v in layers.values()),
          ", ".join(f"{k}={v:.4f}" for k, v in layers.items()))
    plain = tiny_round(tiny["ring-session"])
    values, info = run.per_layer([plain] + traced["ring-session"], raw)
    check("tracing overhead reported", "trace.overhead_s" in values and not info["count_mismatches"],
          f"{values['trace.overhead_s']:.4f} s")

    lib = run.fresh_library()
    del lib.affine.crossing_length
    tracer = spans.Tracer()
    tracer.install(lib)
    check("removed name reported as missing", tracer.missing == ["affine.crossing_length"],
          str(tracer.missing))

    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
