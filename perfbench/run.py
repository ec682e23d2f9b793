"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_fresh --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs the timed phase for ``--seconds``, checks every output,
and prints the end-to-end metrics.  ``--trace 1`` splits ``--seconds``
into an untraced half and a traced half (each with its own setup),
prints the per-layer metrics of the traced half and the tracing
overhead, and writes the spans with the accounting, top self-time
spans and modeled-vs-measured rows to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it, starting with ``#``, are for people.  The program imports
``repro`` from the checkout's ``src/`` and exits non-zero, printing no
result, when that is missing.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads per process: two pool workers on two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REFERENCE_S, Calibrator  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: Set-up repetitions of an untraced run; ``setup_s`` is their median.
SETUP_REPS = 5


def _import_repro():
    """Import ``repro`` from the checkout's ``src/`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'repro'} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")
    return repro


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_counts(state) -> tuple[int, int, int]:
    cache = state["session"].cache
    return cache.hits, cache.misses, len(cache)


def _cache_delta(before, after) -> dict:
    hits, misses, size = (a - b for a, b in zip(after, before))
    return {"hits": hits, "misses": misses, "evictions": misses - size}


def _setup(workload, calibrator, setups: list, tracer=None):
    """One timed set-up between two calibration probes."""
    gc.collect()
    calibrator.probe()
    start = time.perf_counter()
    state = workload.setup(tracer)
    setups.append((start, time.perf_counter()))
    calibrator.probe()
    return state


def _say(line: str) -> None:
    print(f"# {line}", flush=True)


def _report(label: str, values: dict, units: dict) -> None:
    for name, value in values.items():
        if value is not None:
            _say(f"{label} {name} = {value:.6g} {units[name][0]}")


def _report_phase(label: str, phase, clock) -> None:
    n = len(phase.samples)
    _say(
        f"{label}: {phase.ops} ops, {n} latency samples ({n - int(0.9 * n)} beyond p90), "
        f"{clock.probes} probes, median probe {clock.probe_median_s * 1e3:.3f} ms "
        f"(reference {REFERENCE_S * 1e3:.3f} ms), steal {clock.steal_share:.1%}"
    )
    for failure in phase.failures:
        _say(f"{label} FAILED: {failure}")


def _as_metrics(values: dict, catalog: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in catalog.items()}


def _raw(start: float, end: float) -> float:
    return end - start


def _active_s(phase, duration) -> float:
    return sum(duration(t0, t1) for t0, t1 in phase.active)


def run_plain(workload, seconds: float, reps: int):
    from breakdown import END_TO_END, end_to_end

    calibrator = Calibrator()
    setups: list = []
    state = None
    for _ in range(reps):
        state = None  # free the previous set-up before building the next
        state = _setup(workload, calibrator, setups)
    phase = workload.measure(state, seconds, calibrator)
    rss = _peak_rss_mb()
    calibrator.probe()
    clock = calibrator.clock()
    workload.check(state, phase)
    if hasattr(workload, "golden_check"):
        state = None
        gc.collect()
        workload.golden_check(phase)
        _say(f"round-0 fingerprint = {phase.info['fingerprint']}, golden = {phase.info['golden']}")
    values = end_to_end(phase, clock.duration, setups, rss)
    _report_phase("e2e", phase, clock)
    _report("raw", end_to_end(phase, _raw, setups, rss), END_TO_END)
    _report("reference", values, END_TO_END)
    return phase.failed == 0, phase.attempted, phase.failed, _as_metrics(values, END_TO_END)


def run_traced(workload, name: str, seed: int, seconds: float, env: dict):
    from breakdown import (
        END_TO_END,
        PER_LAYER,
        end_to_end,
        modeled_vs_measured,
        on_clock,
        per_layer,
    )
    from spans import FIELDS, Tracer

    half = seconds / 2.0
    calibrator = Calibrator()
    plain_setups: list = []
    state = _setup(workload, calibrator, plain_setups)
    plain = workload.measure(state, half, calibrator)
    workload.check(state, plain)
    state = None

    tracer = Tracer()
    traced_setups: list = []
    tracer.install()
    try:
        with tracer.span("bench.setup", root=True) as setup_sid:
            state = _setup(workload, calibrator, traced_setups, tracer)
        before = _cache_counts(state)
        traced = workload.measure(state, half, calibrator, tracer)
        cache_delta = _cache_delta(before, _cache_counts(state))
    finally:
        tracer.uninstall()
    calibrator.probe()
    clock = calibrator.clock()
    workload.check(state, traced)
    plan = state["session"].plan
    if hasattr(workload, "golden_check"):
        state = None
        gc.collect()
        workload.golden_check(traced)

    untraced_e2e = end_to_end(plain, clock.duration, plain_setups)
    traced_e2e = end_to_end(traced, clock.duration, traced_setups)
    overhead = {
        key: 100.0 * (traced_e2e[key] / untraced_e2e[key] - 1.0)
        for key in untraced_e2e
        if untraced_e2e[key] and traced_e2e[key] is not None
    }
    per_op = [_active_s(p, clock.duration) / max(p.ops, 1) for p in (plain, traced)]
    op_overhead = 100.0 * (per_op[1] / per_op[0] - 1.0)
    spans = on_clock(tracer.spans, clock)
    metrics, report = per_layer(spans, tracer.work, traced, setup_sid, cache_delta, op_overhead)
    rows = modeled_vs_measured(spans, traced, plan)

    accounting = report["accounting"]
    accounting["wall_ms"] = _active_s(traced, clock.duration) * 1e3
    gap = abs(accounting["self_sum_ms"] - accounting["root_sum_ms"])
    balanced = gap <= 1e-6 * max(accounting["root_sum_ms"], 1.0)
    complete = not accounting["unattributed_layers"]
    _report_phase("untraced", plain, clock)
    _report("untraced", untraced_e2e, END_TO_END)
    _report_phase("traced", traced, clock)
    _report("traced", traced_e2e, END_TO_END)
    for key, pct in overhead.items():
        _say(f"tracing overhead {key}: {pct:+.2f}%")
    _say(f"tracing overhead per op: {op_overhead:+.2f}%")
    _say(
        f"self-time accounting: self sum {accounting['self_sum_ms']:.3f} ms = root sum "
        f"{accounting['root_sum_ms']:.3f} ms over {accounting['roots']} roots "
        f"(traced wall {accounting['wall_ms']:.3f} ms): {'ok' if balanced else 'MISMATCH'}"
    )
    for entry in report["top_self"]:
        _say(f"top self time: {entry['span']} {entry['share_pct']:.1f}%")
    _say("layer | scheme | modeled us | prepare ms/op | inject ms/op | multiply ms/op")
    for row in rows:
        _say(
            f"{row['layer']} | {row['scheme']} | {row['modeled_us']:.2f} | "
            f"{row['prepare_ms_per_op']:.3f} | {row['inject_ms_per_op']:.3f} | "
            f"{row['multiply_ms_per_op']:.3f}"
        )
    for key, value in metrics.items():
        _say(f"layer {key} = {value:.6g} {PER_LAYER[key][0]}")

    OUT.mkdir(exist_ok=True)
    artifact = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "environment": env,
        "reference_probe_s": REFERENCE_S,
        "end_to_end": {"untraced": untraced_e2e, "traced": traced_e2e},
        "tracing_overhead_pct": {**overhead, "per_op": op_overhead},
        "accounting": {**accounting, "balanced": balanced},
        "top_self": report["top_self"],
        "modeled_vs_measured": rows,
        "per_layer": metrics,
        "spans": {"fields": FIELDS, "clock": "reference", "rows": spans},
    }
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(artifact))
    _say(f"trace written to {path.relative_to(HERE.parent)} ({len(spans)} spans)")

    failed = plain.failed + traced.failed
    attempted = plain.attempted + traced.attempted
    correct = failed == 0 and balanced and complete
    return correct, attempted, failed, _as_metrics(metrics, PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny model sizes and one set-up, for the smoke test only",
    )
    args = parser.parse_args(argv)
    # Injected faults legitimately drive activations to inf/NaN.
    warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"repro\.")
    _import_repro()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    env = _environment()
    _say(f"environment: {json.dumps(env)}")
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if args.trace:
        outcome = run_traced(workload, args.workload, args.seed, args.seconds, env)
    else:
        reps = 1 if args.smoke else SETUP_REPS
        outcome = run_plain(workload, args.seconds, reps)
    correct, attempted, failed, metrics = outcome
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
