#!/usr/bin/env python3
"""Fault-injection campaigns through the deployment facade.

Deploys DLRM MLP-Bottom (batch 32) under every protecting scheme via
``repro.deploy`` with a fixed policy, runs randomized single-fault
campaigns (the paper's §2.3 fault model) against the same deployed
layer through each session, and prints detection coverage, then
checks that checksum-path faults only ever raise benign alarms.  Then two
refinements on the same layer GEMM: the numerical sensitivity
hierarchy between global and thread-level checks, and the §2.4
multi-fault extension (r independent checksums detect up to r
simultaneous faults; the sweep's campaigns share one prepared state
through the session's cache).
"""

import argparse

import repro
from repro.utils import Table

MODEL, LAYER, BATCH = "mlp_bottom", "fc2", 32


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=80,
                        help="single-fault trials per scheme (default 80; "
                             "CI smoke runs use a small count)")
    args = parser.parse_args()
    if args.trials <= 0:
        parser.error(f"--trials must be positive, got {args.trials}")

    # One session per scheme: same model, same seed, so every scheme's
    # campaign attacks bit-identical operands of the same deployed layer.
    sessions = {
        name: repro.deploy(MODEL, "T4", batch=BATCH, seed=21,
                           policy=f"fixed:{name}")
        for name in repro.list_schemes()
        if repro.get_scheme(name).protects
    }

    shape = sessions["global"].plan.layer(LAYER)
    table = Table(
        ["scheme", "trials", "significant", "coverage", "sensitivity floor"],
        title=(f"Single-fault campaigns ({MODEL}/{LAYER}: "
               f"{shape.m}x{shape.n}x{shape.k} FP16 GEMM, "
               f"{args.trials} trials each)"),
    )
    campaigns = {}
    for name, session in sessions.items():
        campaign = session.campaign(LAYER, seed=21)
        campaigns[name] = campaign
        result = campaign.run(args.trials)
        table.add_row([
            name, result.n_trials, result.n_significant,
            f"{result.coverage * 100:.1f}%", campaign.tolerance_scale,
        ])
        assert result.coverage == 1.0
    print(table.render())

    # Checksum-path faults (paper §2.3) corrupt only the redundant
    # computation, so each one can raise nothing but a benign alarm.
    # The sparse-capable schemes render these trials like any other:
    # the corrupted references join the struck checks.
    n_checksum = 12
    for name, campaign in campaigns.items():
        rows, cols = campaign.fault_domain
        specs = [
            repro.FaultSpec(row=(7 * i) % rows, col=(5 * i) % cols,
                            kind=repro.FaultKind.ADD,
                            value=1e4 if i % 2 == 0 else -1e4,
                            path=repro.FaultPath.CHECKSUM)
            for i in range(n_checksum)
        ]
        result = campaign.run(0, specs)
        assert result.n_benign_alarms == result.n_trials == n_checksum, name
        assert result.n_significant == 0, name
    print(f"\nchecksum-path faults: {n_checksum} ADD +-1e4 trials per scheme, "
          f"every one a benign alarm on all {len(campaigns)} schemes")

    # Sensitivity hierarchy: a corruption between the two schemes'
    # rounding-noise floors is invisible to the whole-output scalar
    # check but still caught per-tile.
    small_value = 2.0 * campaigns["thread_onesided"].tolerance_scale
    assert small_value < campaigns["global"].tolerance_scale
    small = repro.FaultSpec(row=5, col=5, kind=repro.FaultKind.ADD,
                            value=small_value)
    global_hit = campaigns["global"].run_trial(small).detected
    thread_hit = campaigns["thread_onesided"].run_trial(small).detected
    print(f"\nsmall fault (+{small_value:.2g}): global detected={global_hit}, "
          f"thread-level detected={thread_hit}")
    assert thread_hit and not global_hit
    print("thread-level ABFT's per-tile checks resolve corruptions the "
          "whole-output scalar check cannot — a numerical bonus on top of "
          "its performance advantage for bandwidth-bound layers.")

    # Multi-fault trials (paper §2.4): r independent weighted checksums
    # detect up to r simultaneous faults.  One session, one prepared
    # state: the first campaign fetches it through the session cache,
    # the session holds it, and the later campaigns of the sweep are
    # built on the held state — one clean GEMM and no further lookups.
    session = repro.deploy(MODEL, "T4", batch=BATCH, seed=21,
                           policy="fixed:global_multi:2")
    print("\nglobal_multi:2, coverage by simultaneous-fault count "
          f"(on {MODEL}/{LAYER}):")
    for faults_per_trial in (1, 2, 3):
        campaign = session.campaign(LAYER, seed=21)
        result = campaign.run_batch(
            max(args.trials // 2, 8), faults_per_trial=faults_per_trial
        )
        guarantee = "guaranteed" if faults_per_trial <= 2 else "best-effort"
        print(f"  {faults_per_trial} fault(s)/trial: "
              f"{result.coverage * 100:5.1f}% over {result.n_significant} "
              f"significant trials ({guarantee})")
        if faults_per_trial <= 2:
            assert result.coverage == 1.0
    assert session.cache.hits == 0 and session.cache.misses == 1


if __name__ == "__main__":
    main()
