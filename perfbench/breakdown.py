"""Metric catalog and the per-layer breakdown of a traced phase.

Per-layer times are reported per *op*: one served request on the
``serve_*`` workloads, one study round on ``fault_study``.  Times named
after a function (``abft.key_ms``) are inclusive: they contain the
time of the wrapped calls made inside it (``abft.prepare_ms`` contains
``gemm.multiply_ms``).  Times named ``*_self_ms`` / ``cache_wait_ms``
and the ``self.*_pct`` shares are self times, which never overlap.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spans import descendants_of, self_times

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("ratio", "higher"),
}

#: Layers whose self time the ``self.<layer>_pct`` shares split.
SELF_LAYERS = ("bench", "fleet", "api", "nn", "abft", "gemm", "faults")

#: Per-layer metrics (traced run): name -> (unit, better).
PER_LAYER = {
    "api.deploy_ms": ("ms", "lower"),
    "core.assign_ms": ("ms", "lower"),
    "api.run_ms_p50": ("ms", "lower"),
    "fleet.wait_ms_p50": ("ms", "lower"),
    "fleet.overhead_ms_p50": ("ms", "lower"),
    "nn.pass_ms": ("ms/op", "lower"),
    "nn.lower_ms": ("ms/op", "lower"),
    "nn.glue_self_ms": ("ms/op", "lower"),
    "abft.cache_gets": ("gets/op", "lower"),
    "abft.cache_hit_ratio": ("ratio", "higher"),
    "abft.cache_evictions": ("evictions/op", "lower"),
    "abft.key_ms": ("ms/op", "lower"),
    "abft.prepare_ms": ("ms/op", "lower"),
    "abft.cache_wait_ms": ("ms/op", "lower"),
    "abft.inject_ms": ("ms/op", "lower"),
    "abft.inject_calls": ("calls/op", "lower"),
    "abft.clean_compare_ms": ("ms/op", "lower"),
    "abft.false_alarms": ("count", "lower"),
    "gemm.multiply_calls": ("calls/op", "lower"),
    "gemm.multiply_ms": ("ms/op", "lower"),
    "gemm.pad_ms": ("ms/op", "lower"),
    "gemm.gflop": ("GFLOP.calc/op", "lower"),
    "gemm.mb_moved": ("MB.calc/op", "lower"),
    "faults.construct_ms": ("ms/op", "lower"),
    "faults.campaign_ms": ("ms/op", "lower"),
    "faults.trials": ("trials/op", "higher"),
    "faults.prop_ms": ("ms/op", "lower"),
    "faults.prop_trials": ("trials/op", "higher"),
    "faults.detected": ("trials/op", "higher"),
    "faults.masked": ("trials/op", "higher"),
    "faults.recovered": ("trials/op", "higher"),
    "faults.undetected_sdc": ("trials/op", "lower"),
    "faults.multiplies_per_trial": ("ratio", "lower"),
    "faults.retries_per_detected": ("ratio", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    **{f"self.{layer}_pct": ("%", "lower") for layer in SELF_LAYERS},
}


def end_to_end(phase, duration, setups, peak_rss_mb=None) -> dict:
    """The end-to-end values of one timed phase (None where not taken).

    ``duration(start, end)`` measures wall-clock intervals: the
    reference clock's, or plain differences for raw values.  ``setups``
    are the wall-clock intervals of the set-ups; ``setup_s`` is the
    median of their durations.
    """
    lat = np.array([duration(t0, t1) / n for t0, t1, n in phase.samples]) * 1e3
    busy = sum(duration(t0, t1) for t0, t1, _ in phase.work)
    units = sum(n for _, _, n in phase.work)
    return {
        "setup_s": float(np.median([duration(t0, t1) for t0, t1 in setups])),
        "throughput_per_s": units / busy if busy else None,
        "latency_p50_ms": float(np.percentile(lat, 50)) if lat.size else None,
        "latency_p90_ms": float(np.percentile(lat, 90)) if lat.size else None,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - phase.failed / phase.attempted if phase.attempted else None,
    }


def on_clock(spans, clock) -> list[tuple]:
    """Spans with start and end moved to the reference clock.

    The map is monotonic, so nesting, and with it self-time
    accounting, is preserved.
    """
    if not spans:
        return []
    starts = clock.at([s[2] for s in spans])
    ends = clock.at([s[3] for s in spans])
    return [(s[0], s[1], float(a), float(b), *s[4:]) for s, a, b in zip(spans, starts, ends)]


def _p50_ms(values) -> float:
    return float(np.percentile(values, 50)) * 1e3 if values else 0.0


def per_layer(spans, work, phase, setup_sid: int, cache_delta: dict, overhead_pct: float):
    """Per-layer metrics of a traced phase, plus its self-time report.

    ``spans`` are on the reference clock; ``work`` maps GEMM span ids
    to computed ``(flops, bytes)``.  Returns ``(metrics, report)``:
    ``metrics`` maps every :data:`PER_LAYER` name to a number;
    ``report`` holds the self-time accounting and the top self-time
    spans.
    """
    self_by_sid, self_sum, root_sum = self_times(spans, phase.roots)
    timed = [s for s in spans if s[0] in self_by_sid]
    ops = max(phase.ops, 1)
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    durations = defaultdict(list)
    for s in timed:
        total[s[1]] += s[3] - s[2]
        calls[s[1]] += 1
        own[s[1]] += self_by_sid[s[0]]
        durations[s[1]].append(s[3] - s[2])

    setup_self, _, _ = self_times(spans, {setup_sid})
    setup_total = defaultdict(float)
    for s in spans:
        if s[0] in setup_self:
            setup_total[s[1]] += s[3] - s[2]

    def per_op_ms(name, table=total):
        return table[name] * 1e3 / ops

    runs = {s[4]: s[3] - s[2] for s in timed if s[1] == "api.run"}
    requests = [s for s in timed if s[1] == "fleet.request" and s[0] in runs]
    overheads = [s[3] - s[2] - runs[s[0]] for s in requests]

    flops = mbytes = 0.0
    for s in timed:
        if s[1] == "gemm.multiply":
            f, b = work[s[0]]
            flops += f
            mbytes += b
    in_prop = descendants_of(timed, {"faults.prop"})
    replay_multiplies = sum(1 for s in timed if s[1] == "gemm.multiply" and s[0] in in_prop)

    outcomes = phase.info.get("outcomes", {})
    prop_trials = outcomes.get("trials", 0)
    detected = outcomes.get("detected", 0)
    gets = cache_delta["hits"] + cache_delta["misses"]
    shares = defaultdict(float)
    for s in timed:
        shares[s[1].split(".")[0]] += self_by_sid[s[0]]

    metrics = {
        "api.deploy_ms": setup_total["api.deploy"] * 1e3,
        "core.assign_ms": setup_total["core.assign"] * 1e3,
        "api.run_ms_p50": _p50_ms(durations["api.run"]),
        "fleet.wait_ms_p50": _p50_ms(durations["fleet.wait"]),
        "fleet.overhead_ms_p50": _p50_ms(overheads),
        "nn.pass_ms": per_op_ms("nn.pass"),
        "nn.lower_ms": per_op_ms("nn.lower"),
        "nn.glue_self_ms": per_op_ms("nn.pass", own),
        "abft.cache_gets": gets / ops,
        "abft.cache_hit_ratio": cache_delta["hits"] / gets if gets else 0.0,
        "abft.cache_evictions": cache_delta["evictions"] / ops,
        "abft.key_ms": per_op_ms("abft.key"),
        "abft.prepare_ms": per_op_ms("abft.prepare"),
        "abft.cache_wait_ms": per_op_ms("abft.get", own),
        "abft.inject_ms": per_op_ms("abft.inject_batch"),
        "abft.inject_calls": calls["abft.inject_batch"] / ops,
        "abft.clean_compare_ms": per_op_ms("abft.clean_compare"),
        "abft.false_alarms": phase.info.get("false_alarms", 0),
        "gemm.multiply_calls": calls["gemm.multiply"] / ops,
        "gemm.multiply_ms": per_op_ms("gemm.multiply"),
        "gemm.pad_ms": per_op_ms("gemm.pad"),
        "gemm.gflop": flops / 1e9 / ops,
        "gemm.mb_moved": mbytes / 1e6 / ops,
        "faults.construct_ms": per_op_ms("faults.construct"),
        "faults.campaign_ms": per_op_ms("faults.campaign"),
        "faults.trials": phase.info.get("trials", 0) / ops,
        "faults.prop_ms": per_op_ms("faults.prop"),
        "faults.prop_trials": prop_trials / ops,
        "faults.detected": detected / ops,
        "faults.masked": outcomes.get("masked", 0) / ops,
        "faults.recovered": outcomes.get("recovered", 0) / ops,
        "faults.undetected_sdc": outcomes.get("undetected_sdc", 0) / ops,
        "faults.multiplies_per_trial": replay_multiplies / prop_trials if prop_trials else 0.0,
        "faults.retries_per_detected": outcomes.get("retries", 0) / detected if detected else 0.0,
        "trace.ops": phase.ops,
        "trace.overhead_pct": overhead_pct,
        **{
            f"self.{layer}_pct": 100.0 * shares[layer] / self_sum if self_sum else 0.0
            for layer in SELF_LAYERS
        },
    }
    top = sorted(own.items(), key=lambda item: -item[1])[:3]
    report = {
        "accounting": {
            "roots": len(phase.roots),
            "root_sum_ms": root_sum * 1e3,
            "self_sum_ms": self_sum * 1e3,
            "unattributed_layers": sorted(set(shares) - set(SELF_LAYERS)),
        },
        "top_self": [
            {"span": name, "self_ms_per_op": t * 1e3 / ops, "share_pct": 100.0 * t / self_sum}
            for name, t in top
        ],
    }
    return metrics, report


def modeled_vs_measured(spans, phase, plan) -> list[dict]:
    """One row per planned GEMM layer: the plan's choice next to CPU time."""
    self_by_sid, _, _ = self_times(spans, phase.roots)
    ops = max(phase.ops, 1)
    ms = defaultdict(float)
    count = defaultdict(int)
    for s in spans:
        if s[0] in self_by_sid and s[6] is not None:
            ms[s[6], s[1]] += (s[3] - s[2]) * 1e3 / ops
            count[s[6], s[1]] += 1
    rows = []
    for entry in plan:
        rows.append(
            {
                "layer": entry.name,
                "scheme": entry.scheme,
                "gemm_mnk": [entry.m, entry.n, entry.k],
                "modeled_us": entry.chosen_time_s * 1e6,
                "prepare_ms_per_op": ms[entry.name, "abft.prepare"],
                "inject_ms_per_op": ms[entry.name, "abft.inject_batch"],
                "multiply_ms_per_op": ms[entry.name, "gemm.multiply"],
                "multiply_calls_per_op": count[entry.name, "gemm.multiply"] / ops,
            }
        )
    return rows
