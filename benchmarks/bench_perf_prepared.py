#!/usr/bin/env python3
"""Perf benchmark for the prepared/batched execution engine.

Measures the two hot paths the engine amortizes (DESIGN.md §8):

* **Campaign throughput** (trials/sec): a fault-injection campaign via
  the old direct path (full ``scheme.execute`` per trial — padding,
  tile selection, clean GEMM, operand checksums every time) versus the
  batched prepared engine on *both* of its re-reduction paths — the
  dense stacked batch (``sparse=False``) and sparse re-reduction
  (DESIGN.md §1.3), reported side by side.  All paths run the *same*
  pre-drawn fault specs, so the numeric work per verdict is identical;
  only the amortization, batching, and slice sparsity differ.  Each
  path takes the best of several repetitions after one untimed warmup,
  so the number is steady-state campaign throughput (construction
  included) rather than first-touch page faults or background load.
  A fourth row (``global_multi_r2_4f``) runs the §2.4 multi-fault
  campaign mode — ``global_multi`` with two checksums and four
  simultaneous faults per trial — so the per-trial fault-set machinery
  is perf-gated alongside the single-fault paths.
* **Sharded campaign throughput** (``global_sharded_8w``): the
  multiprocess engine (DESIGN.md §4) fanning one large campaign out to
  eight worker processes over a shared-memory clean state, versus the
  same specs through single-process sparse.  Aggregate speedup scales
  with physical cores, so the row records ``cores`` and the committed
  baseline carries ``min_cores`` — the regression gate skips the row
  on smaller runners rather than comparing across machine shapes.
* **Per-inference latency**: repeated ``ProtectedInference.run`` passes
  on one engine, cold (first pass builds the per-layer weight-checksum
  cache) versus warm (weight side fully reused).
* **End-to-end SDC campaign** (``sdc_resnet_e2e``): a propagation
  campaign (DESIGN.md §3) on a ResNet-50 tail surrogate — inject into
  ``layer4.2.conv2``'s GEMM, carry corruption through the remaining
  layers, classify SDC, recover detections — versus the naive
  per-trial baseline (one full protected forward pass per fault set
  plus an output compare).  Same pre-drawn specs, cross-checked for
  verdict agreement; the speedup is what the prepared injection,
  masked-trial short-circuit, and downstream replay buy end to end.
* **Facade parity** (``session_resnet_layer``): the same campaign run
  through ``repro.deploy``'s :class:`~repro.api.ProtectedSession` on a
  deployed ResNet-50 layer versus a hand-wired ``FaultCampaign`` over
  the identical GEMM, both drawing from warm prepared caches.  The
  recorded "speedup" is raw-time / session-time — ~1.0 by
  construction — and the regression gate holds the facade's overhead
  within the same threshold as every other row, so the deployment API
  cannot quietly grow a tax over the engine it wraps.
* **Fleet serving** (``fleet_serving``): a batch of concurrent clean
  requests funneled through one shared session by the asyncio serving
  layer (DESIGN.md §5) versus the same requests issued serially.  The
  BLAS-parallel GEMMs already saturate the cores, so the honest number
  is ~1x — the gate holds the serving layer's event-loop/executor/lock
  overhead near zero, and the row records the requests/s and p50/p99
  latency a served deployment actually exhibits.

Writes ``BENCH_prepared.json`` at the repo root so the perf trajectory
is tracked across PRs; the committed file's hand-curated ``history``
list (one snapshot row per PR, reference machine) is preserved when
the file is rewritten.  ``benchmarks/check_regression.py`` gates CI on
the committed baseline — regenerate and re-commit it deliberately when
the engine or the reference environment changes.  ``--quick`` shrinks
trials/passes for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

import numpy as np

from repro.abft import PreparedCache, scheme_from_token
from repro.api import deploy
from repro.faults import CampaignOptions, FaultCampaign, RecoveryPolicy
from repro.fleet import SessionServer
from repro.gemm import EXECUTION_STATS
from repro.nn import ProtectedInference, SequentialModel
from repro.nn.graph import GraphBuilder
from repro.nn.inference import (
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.layers import Conv2dSpec, LinearSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Default campaign geometry/size: the "default campaign size" the
#: acceptance criterion's >= 3x throughput claim is measured at.
DEFAULT_M, DEFAULT_N, DEFAULT_K = 192, 160, 256
DEFAULT_TRIALS = 200
CAMPAIGN_SCHEMES = ("global", "thread_onesided", "thread_twosided")

#: Multi-fault campaign row: the §2.4 scheme under its target workload
#: (r simultaneous faults per trial through the sparse batched path).
MULTI_FAULT_KEY = "global_multi_r2_4f"
MULTI_FAULT_CHECKSUMS = 2
MULTI_FAULTS_PER_TRIAL = 4

#: Transformer-shaped INT8 rows: one attention-score GEMM (seq x kv x
#: head_dim) and one FFN projection (seq x d_ff x d_model) from the
#: transformer zoo's decoder preset at batch 24, campaigned through the
#: quantized executor under the scheme class intensity-guided selection
#: deploys on each shape at production size (thread-level on the
#: bandwidth-bound attention product, global on the FFN projection).
#: Gated like every other campaign row, so the INT8 prepare/inject
#: paths cannot regress silently.
TRANSFORMER_INT8_ROWS: dict[str, tuple[str, tuple[int, int, int]]] = {
    "attention_int8": ("thread_onesided@int8", (192, 192, 32)),
    "ffn_int8": ("global@int8", (192, 512, 128)),
}

#: Sharded-campaign row: the multiprocess engine (DESIGN.md §4) at its
#: reference worker count, against single-process sparse on the same
#: specs.  Aggregate speedup scales with physical cores, so the
#: committed baseline row carries ``min_cores`` and the regression
#: gate skips it on under-provisioned runners instead of comparing an
#: 8-way fan-out against a 1-core box.
SHARDED_KEY = "global_sharded_8w"
SHARDED_WORKERS = 8
SHARDED_MIN_CORES = 8
#: The sharded row runs its own, much larger campaign: fan-out pays a
#: fixed per-worker cost (fork, shm attach, result transport), so the
#: aggregate-throughput claim is only meaningful at campaign sizes
#: where that cost amortizes — at the default 200-trial size the
#: single-process sparse path finishes in ~3 ms, which no amount of
#: parallelism can beat.
SHARDED_TRIALS = 50_000
SHARDED_TRIALS_QUICK = 2_000

#: Facade-parity row: a deployed ResNet-50 layer (224p — a late
#: bottleneck conv with a moderate 49x512x4608 GEMM) campaigned through
#: the session versus the raw engine.
SESSION_KEY = "session_resnet_layer"
SESSION_MODEL = "resnet50"
SESSION_LAYER = "layer4.2.conv2"
SESSION_RESOLUTION = 224

#: End-to-end SDC row: a numeric ResNet-50 tail surrogate (the last
#: bottleneck's convs + classifier head at 7x7, so the struck GEMM is
#: the same 49x512x4608 shape the facade-parity row attacks) campaigned
#: through :class:`~repro.faults.PropagationCampaign` versus per-trial
#: full protected forward passes.
SDC_KEY = "sdc_resnet_e2e"
SDC_LAYER = "layer4.2.conv2"

#: Fleet-serving row: concurrent requests batched through one shared
#: :class:`~repro.api.ProtectedSession` by the asyncio serving layer
#: (DESIGN.md §5) versus the same requests issued serially.  The GEMM
#: work itself is BLAS-parallel, so concurrency buys overlap of the
#: Python-side pass machinery, not extra FLOPs — the committed speedup
#: is ~1x and the gate holds the serving layer's lock/queue overhead
#: near zero, the same "no quiet tax" contract as the facade-parity
#: row.  Sessions/s and tail latency are recorded alongside.
SERVING_KEY = "fleet_serving"
SERVING_MODEL = "resnet50"
SERVING_RESOLUTION = 128
SERVING_REQUESTS = 16
SERVING_REQUESTS_QUICK = 6
SERVING_CONCURRENCY = 8
SERVING_WORKERS = 4


def _make_scheme(name: str):
    if name == "global_multi":
        return scheme_from_token(f"global_multi:{MULTI_FAULT_CHECKSUMS}")
    return scheme_from_token(name)


def _best_time(run, *, repeats: int) -> float:
    """Best wall time of ``run()`` over ``repeats`` after one warmup.

    Best-of-N is the low-variance estimator for CPU microbenchmarks:
    background load only ever adds time, so the minimum tracks the
    machine's actual capability and keeps the regression gate's
    speedup ratios stable across differently-loaded runners.
    """
    run()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_campaign(
    scheme_name: str,
    *,
    trials: int,
    seed: int,
    repeats: int,
    faults_per_trial: int = 1,
    shape: tuple[int, int, int] = (DEFAULT_M, DEFAULT_N, DEFAULT_K),
) -> dict:
    """Direct-execute vs dense vs sparse prepared campaigns, same specs.

    ``faults_per_trial > 1`` benches the multi-fault campaign mode:
    every trial injects that many simultaneous faults, so the direct
    baseline pays the same per-trial fault work as the batched paths.
    ``scheme_name`` takes any deployment token (``@int8`` included —
    quantized schemes accept the same FP16 operands and quantize at
    ``prepare`` time); ``shape`` overrides the default (M, N, K).
    """
    m, n, k = shape
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, k)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((k, n)) * 0.5).astype(np.float16)

    campaign = FaultCampaign(_make_scheme(scheme_name), a, b, seed=seed)
    drawn = campaign.draw_faults(trials, faults_per_trial=faults_per_trial)
    trial_sets = [
        entry if isinstance(entry, tuple) else (entry,) for entry in drawn
    ]

    # Cross-check once: every path must agree on every verdict.
    scheme = _make_scheme(scheme_name)
    direct_detected = [
        scheme.execute(a, b, faults=list(faults)).detected
        for faults in trial_sets
    ]
    for sparse in (False, True):
        batched = FaultCampaign(
            _make_scheme(scheme_name), a, b, seed=seed, sparse=sparse
        ).run(len(trial_sets), specs=trial_sets)
        assert [t.detected for t in batched.trials] == direct_detected, (
            f"{'sparse' if sparse else 'dense'} path disagrees on verdicts"
        )

    # Direct baseline: what every trial cost before this engine existed.
    direct_s = _best_time(
        lambda: [
            scheme.execute(a, b, faults=list(faults)) for faults in trial_sets
        ],
        repeats=repeats,
    )

    # Batched prepared paths, construction included (prepare + baseline):
    # the dense stacked batch and sparse re-reduction, side by side.
    def prepared_run(sparse: bool):
        fresh = FaultCampaign(
            _make_scheme(scheme_name), a, b, seed=seed, sparse=sparse
        )
        fresh.run(len(trial_sets), specs=trial_sets)

    paths = {}
    for label, sparse in (("dense", False), ("sparse", True)):
        path_s = _best_time(lambda s=sparse: prepared_run(s), repeats=repeats)
        paths[label] = {
            "s": path_s,
            "trials_per_s": trials / path_s,
            "speedup": direct_s / path_s,
        }

    # ``prepared_*`` mirrors the engine's default path (sparse) so the
    # ROADMAP trajectory and history rows stay directly comparable
    # across PRs.
    return {
        "trials": trials,
        "faults_per_trial": faults_per_trial,
        "problem": {"m": m, "n": n, "k": k},
        "repeats": repeats,
        "direct_s": direct_s,
        "direct_trials_per_s": trials / direct_s,
        "paths": paths,
        "prepared_s": paths["sparse"]["s"],
        "prepared_trials_per_s": paths["sparse"]["trials_per_s"],
        "speedup": paths["sparse"]["speedup"],
    }


def bench_sharded_campaign(*, trials: int, seed: int, repeats: int) -> dict:
    """Multiprocess sharded campaign vs single-process sparse, same specs.

    Both sides run the identical pre-drawn fault specs through the
    sparse prepared path; the sharded side fans the trial range out to
    ``SHARDED_WORKERS`` processes over one shared-memory clean state
    (DESIGN.md §4).  Records are cross-checked for verdict identity —
    the determinism contract says sharding may change *when* a trial
    runs, never what it reports.  The row records ``cores`` so the
    regression gate can tell a real regression from a small machine.
    """
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((DEFAULT_M, DEFAULT_K)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((DEFAULT_K, DEFAULT_N)) * 0.5).astype(np.float16)
    drawn = FaultCampaign(
        scheme_from_token("global"), a, b, seed=seed
    ).draw_faults(trials)

    def run(workers=None):
        return FaultCampaign(
            scheme_from_token("global"), a, b, seed=seed
        ).run(0, specs=drawn, workers=workers)

    assert (
        [t.detected for t in run(SHARDED_WORKERS).trials]
        == [t.detected for t in run().trials]
    ), "sharded campaign disagrees with single-process verdicts"

    single_s = _best_time(run, repeats=repeats)
    sharded_s = _best_time(
        lambda: run(SHARDED_WORKERS), repeats=repeats
    )
    return {
        "gate": "sharded",
        "scheme": "global",
        "workers": SHARDED_WORKERS,
        "cores": os.cpu_count(),
        "min_cores": SHARDED_MIN_CORES,
        "trials": trials,
        "repeats": repeats,
        "direct_s": single_s,
        "direct_trials_per_s": trials / single_s,
        "paths": {
            "sharded": {
                "s": sharded_s,
                "trials_per_s": trials / sharded_s,
                "speedup": single_s / sharded_s,
            }
        },
    }


def bench_session_campaign(*, trials: int, seed: int, repeats: int) -> dict:
    """Facade parity: session campaign vs hand-wired FaultCampaign.

    Both paths run the identical pre-drawn specs against the identical
    layer GEMM with warm prepared caches (the untimed warmup primes
    them), so the measured ratio is purely the facade's per-campaign
    overhead — campaign construction through the session cache versus
    direct construction over a warm private cache.  The row's
    ``speedup`` is raw-time / session-time, ~1.0 by construction, and
    the regression gate keeps it within noise of the committed value.
    """
    session = deploy(
        SESSION_MODEL, "T4",
        h=SESSION_RESOLUTION, w=SESSION_RESOLUTION, seed=seed,
    )
    token = session.plan.layer(SESSION_LAYER).scheme
    a, b, _tile = session.layer_operands(SESSION_LAYER)
    drawn = session.campaign(SESSION_LAYER, seed=seed).draw_faults(trials)

    raw_cache = PreparedCache()
    raw_scheme = scheme_from_token(token)

    def run_raw():
        FaultCampaign(
            raw_scheme, a, b,
            options=CampaignOptions(seed=seed, cache=raw_cache),
        ).run(0, specs=drawn)

    def run_session():
        session.campaign(SESSION_LAYER, seed=seed).run(0, specs=drawn)

    raw_s = _best_time(run_raw, repeats=repeats)
    session_s = _best_time(run_session, repeats=repeats)
    return {
        "gate": "parity",
        "model": SESSION_MODEL,
        "layer": SESSION_LAYER,
        "scheme": token,
        "trials": trials,
        "repeats": repeats,
        "direct_s": raw_s,
        "direct_trials_per_s": trials / raw_s,
        "paths": {
            "session": {
                "s": session_s,
                "trials_per_s": trials / session_s,
                "speedup": raw_s / session_s,
            }
        },
    }


def _resnet_tail(rng: np.random.Generator) -> tuple:
    """Shape-level graph + numeric surrogate of the ResNet-50 tail.

    The last bottleneck's 3x3 conv (the 49x512x4608 GEMM the
    facade-parity row attacks), its 1x1 expansion, global average
    pooling, and the 1000-way classifier — the smallest model on which
    "does the fault flip the ImageNet top-1?" is a real question.
    """
    builder = GraphBuilder("resnet50_tail", batch=1, channels=512, h=7, w=7)
    builder.conv(512, 3, padding=1, name=SDC_LAYER)
    builder.conv(2048, 1, name="layer4.2.conv3")
    builder.adaptive_pool(1, 1)
    builder.linear(1000, name="fc")
    graph = builder.build("1x512x7x7 layer4 activations")

    c2 = Conv2dSpec(512, 512, kernel=3, padding=1)
    c3 = Conv2dSpec(512, 2048, kernel=1)
    fc = LinearSpec(2048, 1000)
    ops = [
        Conv2d(c2, SequentialModel.random_weights_conv(c2, rng), name=SDC_LAYER),
        ReLU(),
        Conv2d(c3, SequentialModel.random_weights_conv(c3, rng),
               name="layer4.2.conv3"),
        ReLU(),
        GlobalAvgPool(),
        Flatten(),
        Linear(fc, SequentialModel.random_weights_linear(fc, rng), name="fc"),
    ]
    return graph, SequentialModel(ops, name="resnet50_tail")


def bench_sdc_e2e(*, trials: int, seed: int, repeats: int) -> dict:
    """End-to-end SDC campaign vs per-trial full forward passes.

    The naive baseline answers "did this fault silently corrupt the
    output?" the only way available without the propagation engine:
    one full protected forward pass per fault set, compared against a
    clean reference pass.  The campaign path answers it through the
    prepared injector — masked trials short-circuit, corrupted ones
    replay only the downstream layers on the traced prepared states —
    with transient recovery plus bit-identity verification of every
    recovered trial folded in.  Both paths run the identical pre-drawn
    specs and are cross-checked for detection-verdict agreement.
    """
    rng = np.random.default_rng(seed)
    graph, runnable = _resnet_tail(rng)
    session = deploy(graph, "T4", runnable=runnable, seed=seed)
    token = session.plan.layer(SDC_LAYER).scheme
    x = (rng.standard_normal((1, 512, 7, 7)) * 0.5).astype(np.float16)
    session.run(x)  # record operands so the draw targets the real GEMM
    drawn = session.campaign(SDC_LAYER, seed=seed).draw_faults(trials)
    policy = RecoveryPolicy(max_retries=2, fault_model="transient")

    # Cross-check once: the campaign's per-trial verdicts must agree
    # with what full faulted forward passes report for the same specs.
    result = session.propagation_campaign(
        SDC_LAYER, x=x, seed=seed, recovery=policy
    ).run(0, specs=drawn)
    direct_detected = [
        session.run(x, faults={SDC_LAYER: [spec]}).detected for spec in drawn
    ]
    assert [r.detected for r in result.records] == direct_detected, (
        "propagation campaign disagrees with full-pass verdicts"
    )

    def run_direct():
        clean = session.run(x).output
        for spec in drawn:
            res = session.run(x, faults={SDC_LAYER: [spec]})
            _classified = res.detected, bool(
                np.argmax(res.output) != np.argmax(clean)
            )

    def run_campaign():
        session.propagation_campaign(
            SDC_LAYER, x=x, seed=seed, recovery=policy
        ).run(0, specs=drawn)

    direct_s = _best_time(run_direct, repeats=repeats)
    e2e_s = _best_time(run_campaign, repeats=repeats)
    return {
        "gate": "e2e",
        "model": "resnet50_tail",
        "layer": SDC_LAYER,
        "scheme": token,
        "recovery": f"transient,max_retries={policy.max_retries}",
        "trials": trials,
        "repeats": repeats,
        "sdc_rate": result.undetected_sdc_rate,
        "n_detected": result.n_detected,
        "n_recovered": result.n_recovered,
        "direct_s": direct_s,
        "direct_trials_per_s": trials / direct_s,
        "paths": {
            "e2e": {
                "s": e2e_s,
                "trials_per_s": trials / e2e_s,
                "speedup": direct_s / e2e_s,
            }
        },
    }


def bench_fleet_serving(*, requests: int, seed: int, repeats: int) -> dict:
    """Concurrent serving through one shared session vs a serial loop.

    Both paths push the identical clean-request stream through the
    same warm deployed session; the serial loop calls ``session.run``
    back to back while the serving path funnels the batch through
    :class:`~repro.fleet.SessionServer`'s thread pool behind an asyncio
    concurrency gate.  The measured ratio is the serving layer's
    overhead (event loop, executor hop, stats lock) against whatever
    overlap the GIL-releasing GEMMs allow — ~1x by construction, and
    the regression gate keeps it from quietly collapsing.  The row also
    records the batch's requests/s and p50/p99 latency, the numbers a
    deployment actually serves under.
    """
    session = deploy(
        SERVING_MODEL, "T4",
        h=SERVING_RESOLUTION, w=SERVING_RESOLUTION, seed=seed,
    )
    session.run()  # prepare every layer once, outside both timed paths

    def run_serial():
        for _ in range(requests):
            session.run()

    reports = []
    with SessionServer(session, max_workers=SERVING_WORKERS) as server:

        def run_serving():
            reports.append(
                server.serve_blocking(
                    requests, concurrency=SERVING_CONCURRENCY
                )
            )

        direct_s = _best_time(run_serial, repeats=repeats)
        serving_s = _best_time(run_serving, repeats=repeats)
    best = min(reports, key=lambda r: r.total_s)
    return {
        "gate": "serving",
        "model": SERVING_MODEL,
        "resolution": SERVING_RESOLUTION,
        "concurrency": SERVING_CONCURRENCY,
        "max_workers": SERVING_WORKERS,
        "trials": requests,
        "repeats": repeats,
        "requests_per_s": best.requests_per_s,
        "p50_ms": best.p50_ms,
        "p99_ms": best.p99_ms,
        "direct_s": direct_s,
        "direct_trials_per_s": requests / direct_s,
        "paths": {
            "serving": {
                "s": serving_s,
                "trials_per_s": requests / serving_s,
                "speedup": direct_s / serving_s,
            }
        },
    }


def build_model(rng: np.random.Generator) -> SequentialModel:
    """Small conv net: enough layers for the weight cache to matter."""
    c1 = Conv2dSpec(3, 16, kernel=3, padding=1)
    c2 = Conv2dSpec(16, 16, kernel=3, padding=1)
    fc = LinearSpec(16 * 8 * 8, 10)
    ops = [
        Conv2d(c1, SequentialModel.random_weights_conv(c1, rng), name="conv0"),
        ReLU(),
        MaxPool2d(2, 2),
        Conv2d(c2, SequentialModel.random_weights_conv(c2, rng), name="conv1"),
        ReLU(),
        Flatten(),
        Linear(fc, SequentialModel.random_weights_linear(fc, rng), name="fc"),
    ]
    return SequentialModel(ops, name="bench-cnn")


def bench_inference(*, passes: int, seed: int) -> dict:
    """Cold vs warm protected forward passes on one engine."""
    rng = np.random.default_rng(seed)
    model = build_model(rng)
    x = (rng.standard_normal((4, 3, 16, 16)) * 0.5).astype(np.float16)

    engine = ProtectedInference(model, scheme_from_token("global"))
    t0 = time.perf_counter()
    engine.run(x)
    cold_s = time.perf_counter() - t0

    EXECUTION_STATS.reset()
    t0 = time.perf_counter()
    for _ in range(passes):
        engine.run(x)
    warm_s = (time.perf_counter() - t0) / passes
    warm_weight_reductions = EXECUTION_STATS.weight_reductions

    return {
        "scheme": "global",
        "linear_layers": len(model.linear_names),
        "warm_passes": passes,
        "cold_pass_s": cold_s,
        "warm_pass_s": warm_s,
        "speedup": cold_s / warm_s,
        "warm_weight_reductions": warm_weight_reductions,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small trial counts for CI smoke runs")
    parser.add_argument("--trials", type=int, default=None,
                        help=f"campaign trials (default {DEFAULT_TRIALS})")
    parser.add_argument("--output", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_prepared.json")
    args = parser.parse_args()

    trials = args.trials if args.trials is not None else (
        25 if args.quick else DEFAULT_TRIALS
    )
    if trials <= 0:
        parser.error(f"--trials must be positive, got {trials}")
    passes = 3 if args.quick else 10
    repeats = 1 if args.quick else 5

    report = {
        "benchmark": "prepared-execution engine",
        "quick": args.quick,
        "campaign_problem": {"m": DEFAULT_M, "n": DEFAULT_N, "k": DEFAULT_K},
        "campaign": {},
    }
    campaign_rows = [(name, 1) for name in CAMPAIGN_SCHEMES]
    campaign_rows.append(("global_multi", MULTI_FAULTS_PER_TRIAL))
    for name, faults_per_trial in campaign_rows:
        key = name if faults_per_trial == 1 else MULTI_FAULT_KEY
        report["campaign"][key] = bench_campaign(
            name, trials=trials, seed=17, repeats=repeats,
            faults_per_trial=faults_per_trial,
        )
        row = report["campaign"][key]
        print(f"campaign[{key}]: direct {row['direct_trials_per_s']:8.1f} "
              f"trials/s -> dense {row['paths']['dense']['trials_per_s']:8.1f} "
              f"({row['paths']['dense']['speedup']:.1f}x) -> sparse "
              f"{row['paths']['sparse']['trials_per_s']:8.1f} "
              f"({row['paths']['sparse']['speedup']:.1f}x, "
              f"{row['paths']['sparse']['speedup'] / row['paths']['dense']['speedup']:.1f}x "
              f"over dense)")

    for key, (token, shape) in TRANSFORMER_INT8_ROWS.items():
        report["campaign"][key] = bench_campaign(
            token, trials=trials, seed=17, repeats=repeats, shape=shape
        )
        report["campaign"][key]["scheme"] = token
        row = report["campaign"][key]
        print(f"campaign[{key}]: {token} on "
              f"{shape[0]}x{shape[1]}x{shape[2]}: direct "
              f"{row['direct_trials_per_s']:8.1f} trials/s -> sparse "
              f"{row['paths']['sparse']['trials_per_s']:8.1f} "
              f"({row['paths']['sparse']['speedup']:.1f}x)")

    report["campaign"][SHARDED_KEY] = bench_sharded_campaign(
        trials=SHARDED_TRIALS_QUICK if args.quick else SHARDED_TRIALS,
        seed=17, repeats=repeats,
    )
    row = report["campaign"][SHARDED_KEY]
    print(f"campaign[{SHARDED_KEY}]: 1-proc "
          f"{row['direct_trials_per_s']:8.1f} trials/s -> "
          f"{row['workers']} workers "
          f"{row['paths']['sharded']['trials_per_s']:8.1f} "
          f"({row['paths']['sharded']['speedup']:.1f}x on "
          f"{row['cores']} cores)")

    report["campaign"][SESSION_KEY] = bench_session_campaign(
        trials=trials, seed=17, repeats=repeats
    )
    row = report["campaign"][SESSION_KEY]
    print(f"campaign[{SESSION_KEY}]: raw {row['direct_trials_per_s']:8.1f} "
          f"trials/s vs session "
          f"{row['paths']['session']['trials_per_s']:8.1f} "
          f"(parity {row['paths']['session']['speedup']:.2f}x, "
          f"{row['scheme']} on {row['model']}/{row['layer']})")

    report["campaign"][SDC_KEY] = bench_sdc_e2e(
        trials=trials, seed=17, repeats=repeats
    )
    row = report["campaign"][SDC_KEY]
    print(f"campaign[{SDC_KEY}]: direct {row['direct_trials_per_s']:8.1f} "
          f"trials/s -> e2e {row['paths']['e2e']['trials_per_s']:8.1f} "
          f"({row['paths']['e2e']['speedup']:.1f}x, sdc rate "
          f"{row['sdc_rate']:.2f}, {row['n_recovered']}/{row['n_detected']} "
          f"detections recovered)")

    report["campaign"][SERVING_KEY] = bench_fleet_serving(
        requests=SERVING_REQUESTS_QUICK if args.quick else SERVING_REQUESTS,
        seed=17, repeats=repeats,
    )
    row = report["campaign"][SERVING_KEY]
    print(f"campaign[{SERVING_KEY}]: serial "
          f"{row['direct_trials_per_s']:8.1f} req/s vs serving "
          f"{row['paths']['serving']['trials_per_s']:8.1f} "
          f"({row['paths']['serving']['speedup']:.2f}x at concurrency "
          f"{row['concurrency']}, p99 {row['p99_ms']:.0f} ms)")

    report["inference"] = bench_inference(passes=passes, seed=17)
    inf = report["inference"]
    print(f"inference: cold {inf['cold_pass_s'] * 1e3:.1f} ms -> warm "
          f"{inf['warm_pass_s'] * 1e3:.1f} ms ({inf['speedup']:.2f}x), "
          f"warm-pass weight reductions = {inf['warm_weight_reductions']}")

    # The committed BENCH_prepared.json carries a hand-curated
    # ``history`` list — one row per PR, each a snapshot taken on the
    # reference machine when that PR landed.  Rewriting the file
    # preserves that record verbatim; fresh rows are added by hand (see
    # the ROADMAP trajectory table), never synthesized from a run on an
    # arbitrary machine.
    if args.output.exists():
        try:
            prior_history = json.loads(args.output.read_text()).get("history")
        except (json.JSONDecodeError, OSError):
            prior_history = None
        if prior_history:
            report["history"] = prior_history

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    # Gross sanity floors only — machine-portable by design (a broken
    # batched or sparse path collapses to ~1x).  The real ratchet is
    # check_regression.py against the committed baseline.  Parity rows
    # measure facade overhead against an equally-warm engine, so their
    # floor is "not meaningfully slower than raw", not an amortization
    # multiple; the e2e SDC row pays full forward-pass physics on both
    # sides (plus recovery verification on the campaign side), so its
    # floor is "never slower than naive per-trial re-execution".
    floor = 1.5 if args.quick else 3.0
    parity_floor = 0.5
    e2e_floor = 1.0
    serving_floor = 0.5
    slowest = min(
        path["speedup"]
        for r in report["campaign"].values()
        if r.get("gate") is None
        for path in r["paths"].values()
    )
    if slowest < floor:
        raise SystemExit(
            f"campaign speedup regression: slowest scheme/path at "
            f"{slowest:.2f}x (floor is {floor}x)"
        )
    # The sharded fan-out only has a sanity floor where there are
    # physical cores to fan out to; a small box records an honest
    # (slower) number and the committed-baseline gate skips it.
    sharded_row = report["campaign"][SHARDED_KEY]
    if (sharded_row["cores"] or 0) >= SHARDED_MIN_CORES:
        sharded = sharded_row["paths"]["sharded"]["speedup"]
        sharded_floor = 1.5 if args.quick else 3.0
        if sharded < sharded_floor:
            raise SystemExit(
                f"sharded campaign regression: {sharded:.2f}x over "
                f"single-process on {sharded_row['cores']} cores "
                f"(floor is {sharded_floor}x)"
            )
    for gate, gate_floor, what in (
        ("parity", parity_floor, "facade overhead"),
        ("e2e", e2e_floor, "end-to-end SDC campaign"),
        ("serving", serving_floor, "concurrent serving"),
    ):
        gated = min(
            (
                path["speedup"]
                for r in report["campaign"].values()
                if r.get("gate") == gate
                for path in r["paths"].values()
            ),
            default=gate_floor,
        )
        if gated < gate_floor:
            raise SystemExit(
                f"{what} regression: {gated:.2f}x of the direct path "
                f"(floor is {gate_floor}x)"
            )


if __name__ == "__main__":
    main()
