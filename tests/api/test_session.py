"""Protected-session tests: cache amortization and campaign equivalence.

Pins the deployment API's acceptance criteria: a session-built campaign
is record-for-record identical to a hand-wired
:class:`~repro.faults.FaultCampaign` on the same layer GEMM, the clean
GEMM runs exactly once across session forward passes and campaigns,
and one weight-side preparation per layer serves every batch size —
all asserted via ``EXECUTION_STATS`` rather than inferred from timings.
"""

import math

import numpy as np
import pytest

import repro
from repro.api import DeploymentPlan, ProtectedSession, deploy
from repro.errors import ConfigurationError
from repro.gemm import EXECUTION_STATS
from repro.nn.inference import Linear, ReLU, SequentialModel
from repro.nn.layers import LinearSpec


def records_identical(left, right):
    """Record-for-record equality, NaN deltas compared as equal."""
    if len(left) != len(right):
        return False
    for t1, t2 in zip(left, right):
        if (t1.faults, t1.detected, t1.significant, t1.benign_alarm) != (
            t2.faults, t2.detected, t2.significant, t2.benign_alarm
        ):
            return False
        if t1.delta != t2.delta and not (
            math.isnan(t1.delta) and math.isnan(t2.delta)
        ):
            return False
    return True


def runnable_mlp(seed: int = 7) -> SequentialModel:
    rng = np.random.default_rng(seed)
    dims = [13, 512, 256, 64]
    ops = []
    for i, (fin, fout) in enumerate(zip(dims, dims[1:])):
        spec = LinearSpec(fin, fout)
        ops.append(
            Linear(spec, SequentialModel.random_weights_linear(spec, rng),
                   name=f"fc{i}")
        )
        if i < len(dims) - 2:
            ops.append(ReLU())
    return SequentialModel(ops, name="mlp_bottom")


class TestLayerGemmSession:
    def test_clean_gemm_once_across_passes_and_campaigns(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        EXECUTION_STATS.reset()
        session.run()
        session.run()
        campaign = session.campaign("fc1", seed=5)
        campaign.run(24)
        session.campaign("fc1", seed=9).run(8)
        # One clean GEMM per layer, total — passes and campaigns share
        # the prepared state through the session cache.
        assert EXECUTION_STATS.gemms == 3

    def test_campaign_matches_hand_wired_faultcampaign(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        result = session.campaign("fc1", seed=5).run(32)

        a, b, tile = session.layer_operands("fc1")
        token = session.plan.layer("fc1").scheme
        hand = repro.FaultCampaign(
            repro.scheme_from_token(token), a, b, tile=tile, seed=5
        ).run(32)
        assert records_identical(result.trials, hand.trials)

    def test_deterministic_operands_across_sessions(self):
        first = deploy("mlp_bottom", "T4", batch=16, seed=3)
        second = deploy("mlp_bottom", "T4", batch=16, seed=3)
        a1, b1, _ = first.layer_operands("fc0")
        a2, b2, _ = second.layer_operands("fc0")
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        other = deploy("mlp_bottom", "T4", batch=16, seed=4)
        a3, _, _ = other.layer_operands("fc0")
        assert not np.array_equal(a1, a3)

    def test_run_reports_injected_fault(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        fault = repro.FaultSpec(
            row=3, col=7, kind=repro.FaultKind.BITFLIP_FP32, bit=27
        )
        result = session.run(faults={"fc1": [fault]})
        flagged = [r.name for r in result.layer_outcomes if r.detected]
        assert flagged == ["fc1"]

    def test_run_rejects_unknown_fault_target(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        with pytest.raises(ConfigurationError, match="not in plan"):
            session.run(faults={"fc9": []})

    def test_run_rejects_activations(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        with pytest.raises(ConfigurationError, match="layer-GEMM"):
            session.run(np.zeros((16, 13), dtype=np.float16))

    def test_campaign_requires_layer_on_multilayer_plans(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        with pytest.raises(ConfigurationError, match="pass layer="):
            session.campaign()
        with pytest.raises(ConfigurationError, match="no layer"):
            session.campaign("fc9")


class TestWarmLayerGemmPass:
    """A warm layer-GEMM pass does only work whose result can change."""

    def test_warm_pass_neither_keys_nor_multiplies(self, key_calls):
        session = deploy("mlp_bottom", "T4", batch=16)
        session.run()
        key_calls.clear()
        EXECUTION_STATS.reset()
        warm = session.run()
        assert key_calls == []
        assert EXECUTION_STATS.gemms == 0
        fresh = deploy("mlp_bottom", "T4", batch=16).run()
        assert warm.output.tobytes() == fresh.output.tobytes()

    def test_held_states_outlive_cache_clear(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        first = session.run()
        session.cache.clear()
        EXECUTION_STATS.reset()
        again = session.run()
        assert EXECUTION_STATS.gemms == 0
        assert again.output.tobytes() == first.output.tobytes()

    def test_layer_operands_are_read_only(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        a, b, _ = session.layer_operands("fc0")
        assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        with pytest.raises(ValueError):
            b[...] = 0.0

    def test_campaign_after_a_pass_neither_keys_nor_multiplies(
        self, key_calls
    ):
        session = deploy("mlp_bottom", "T4", batch=16)
        session.run()
        key_calls.clear()
        EXECUTION_STATS.reset()
        campaign = session.campaign("fc1", seed=5)
        assert key_calls == []
        assert EXECUTION_STATS.gemms == 0
        assert campaign.prepared is session._layer_state("fc1")

    def test_intermediate_outputs_equal_each_layers_gemm(self):
        session = deploy("mlp_bottom", "T4", batch=16)
        session.run()
        result = session.run()
        for step in result.layer_outcomes:
            a, b, _ = session.layer_operands(step.name)
            executed = session.scheme_for(step.name).execute(a, b).c
            assert step.outcome.c.tobytes() == executed.tobytes()
        assert result.output is result.layer_outcomes[-1].outcome.c


class TestNumericSession:
    def test_one_cache_entry_per_layer_per_batch_size(self):
        session = deploy(
            "mlp_bottom", "T4", batch=4, policy="fixed:global",
            runnable=runnable_mlp(),
        )
        rng = np.random.default_rng(0)
        x4 = (rng.standard_normal((4, 13)) * 0.5).astype(np.float16)
        x8 = (rng.standard_normal((8, 13)) * 0.5).astype(np.float16)

        EXECUTION_STATS.reset()
        session.run(x4)
        assert EXECUTION_STATS.snapshot() == (3, 3, 3)
        # Identical activations: every layer hits its cache entry.
        session.run(x4)
        assert EXECUTION_STATS.snapshot() == (3, 3, 3)
        # New batch size: new activations re-run the clean GEMMs, but
        # the m-independent weight-side state is reused per layer —
        # zero additional weight reductions across batch sizes.
        session.run(x8)
        assert EXECUTION_STATS.gemms == 6
        assert EXECUTION_STATS.weight_reductions == 3
        assert len(session.cache) == 6

    def test_campaign_attacks_the_executed_gemm(self):
        session = deploy(
            "mlp_bottom", "T4", batch=4, policy="fixed:global",
            runnable=runnable_mlp(),
        )
        rng = np.random.default_rng(1)
        x = (rng.standard_normal((4, 13)) * 0.5).astype(np.float16)
        session.run(x)

        EXECUTION_STATS.reset()
        result = session.campaign("fc1", seed=11).run(16)
        assert EXECUTION_STATS.gemms == 0  # reused the pass's GEMM

        a, b, tile = session.layer_operands("fc1")
        hand = repro.FaultCampaign(
            repro.get_scheme("global"), a, b, tile=tile, seed=11
        ).run(16)
        assert records_identical(result.trials, hand.trials)

    def test_campaign_after_a_pass_neither_keys_nor_multiplies(
        self, key_calls
    ):
        session = deploy("mlp_bottom", "T4", batch=4, runnable=runnable_mlp())
        x = (np.random.default_rng(3).standard_normal((4, 13)) * 0.5).astype(
            np.float16
        )
        session.run(x)
        key_calls.clear()
        EXECUTION_STATS.reset()
        for layer in session.plan.layer_names:
            campaign = session.campaign(layer, seed=1)
            a, b, tile = session.layer_operands(layer)
            assert campaign.a is a and campaign.tile == tile
        assert key_calls == []
        assert EXECUTION_STATS.gemms == 0

    def test_campaign_matches_hand_wired_faultcampaign(self):
        session = deploy("mlp_bottom", "T4", batch=4, runnable=runnable_mlp())
        x = (np.random.default_rng(4).standard_normal((4, 13)) * 0.5).astype(
            np.float16
        )
        session.run(x)
        for layer in session.plan.layer_names:
            result = session.campaign(layer, seed=5).run(32)
            a, b, tile = session.layer_operands(layer)
            hand = repro.FaultCampaign(
                repro.scheme_from_token(session.plan.layer(layer).scheme),
                a,
                b,
                tile=tile,
                options=repro.CampaignOptions(
                    seed=5, cache=repro.PreparedCache()
                ),
            ).run(32)
            assert records_identical(result.trials, hand.trials), layer

    def test_layer_operands_are_read_only(self):
        session = deploy("mlp_bottom", "T4", batch=4, runnable=runnable_mlp())
        x = (np.random.default_rng(5).standard_normal((4, 13)) * 0.5).astype(
            np.float16
        )
        session.run(x)
        a, _, _ = session.layer_operands("fc0")
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        # The caller's input is never frozen: the record holds copies.
        assert x.flags.writeable

    def test_campaign_before_any_pass_is_rejected(self):
        session = deploy(
            "mlp_bottom", "T4", batch=4, runnable=runnable_mlp()
        )
        with pytest.raises(ConfigurationError, match="forward pass"):
            session.campaign("fc1")

    def test_run_requires_activations(self):
        session = deploy(
            "mlp_bottom", "T4", batch=4, runnable=runnable_mlp()
        )
        with pytest.raises(ConfigurationError, match="needs"):
            session.run()

    def test_faulty_passes_do_not_poison_recorded_operands(self):
        """Campaigns must attack the clean deployment's GEMMs even if
        the most recent pass injected faults (corrupted activations
        propagate downstream of the faulted layer)."""
        session = deploy(
            "mlp_bottom", "T4", batch=4, policy="fixed:global",
            runnable=runnable_mlp(),
        )
        rng = np.random.default_rng(2)
        x = (rng.standard_normal((4, 13)) * 0.5).astype(np.float16)
        session.run(x)
        clean_a, clean_b, _ = session.layer_operands("fc2")

        fault = repro.FaultSpec(
            row=0, col=3, kind=repro.FaultKind.ADD, value=80.0
        )
        session.run(x, faults={"fc0": [fault]})
        a, b, _ = session.layer_operands("fc2")
        assert np.array_equal(a, clean_a) and np.array_equal(b, clean_b)

    def test_detection_constants_reach_forward_passes(self):
        """The session's detection constants govern the numeric engine,
        not just campaigns (they'd otherwise disagree on verdicts)."""
        from dataclasses import replace

        from repro import DEFAULT_DETECTION

        strict = replace(DEFAULT_DETECTION, rtol_slack=12.0)
        session = deploy(
            "mlp_bottom", "T4", batch=4, runnable=runnable_mlp(),
            detection=strict,
        )
        assert session.engine.detection is strict

    def test_mismatched_runnable_rejected(self):
        model = runnable_mlp()
        model.ops[0].name = "first"
        with pytest.raises(ConfigurationError, match="does not match"):
            deploy("mlp_bottom", "T4", batch=4, runnable=model)


class TestPlanRoundTripIntoSession:
    def test_deserialized_plan_is_runnable(self):
        plan = deploy("mlp_bottom", "T4", batch=16).plan
        restored = DeploymentPlan.from_json(plan.to_json())
        session = ProtectedSession(restored, seed=0)
        result = session.campaign("fc2", seed=2).run(12)
        assert result.n_trials == 12
        assert result.coverage == 1.0

    def test_sessions_from_equal_plans_agree(self):
        """Same plan JSON + same seeds -> identical campaign records."""
        original = deploy("mlp_bottom", "T4", batch=16, seed=1)
        restored = ProtectedSession(
            DeploymentPlan.from_json(original.plan.to_json()), seed=1
        )
        r1 = original.campaign("fc1", seed=4).run(16)
        r2 = restored.campaign("fc1", seed=4).run(16)
        assert records_identical(r1.trials, r2.trials)
