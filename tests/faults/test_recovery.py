"""Detection-triggered recovery: policy semantics and bit-identity.

The contract under test (DESIGN.md §3): a transient retry re-executes
fault-free and recovers the bit-exact clean output; a sticky fault
burns the whole budget, after which the policy either raises or flags
degradation and propagates.  A recovered *pass* must be byte-identical
to a clean pass — output and recorded operands alike.
"""

import numpy as np
import pytest

from repro.abft import get_scheme
from repro.errors import ConfigurationError, RecoveryError
from repro.faults import (
    FaultKind,
    FaultSpec,
    RecoveryPolicy,
    attempt_recovery,
)
from repro.gemm import EXECUTION_STATS
from repro.nn import ProtectedInference, SequentialModel
from repro.nn.inference import Linear, ReLU
from repro.nn.layers import LinearSpec

BIG_FAULT = FaultSpec(row=0, col=0, kind=FaultKind.SET, value=1e4)


@pytest.fixture
def mlp(rng):
    s0 = LinearSpec(24, 32)
    s1 = LinearSpec(32, 8)
    return SequentialModel(
        [
            Linear(s0, SequentialModel.random_weights_linear(s0, rng), name="fc0"),
            ReLU(),
            Linear(s1, SequentialModel.random_weights_linear(s1, rng), name="fc1"),
        ],
        name="tiny-mlp",
    )


@pytest.fixture
def x(rng):
    return (rng.standard_normal((4, 24)) * 0.5).astype(np.float16)


class TestPolicyValidation:
    def test_defaults(self):
        policy = RecoveryPolicy()
        assert policy.max_retries == 2
        assert policy.fault_model == "transient"
        assert policy.on_exhausted == "flag-and-propagate"
        assert not policy.sticky

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": 0},
            {"fault_model": "intermittent"},
            {"on_exhausted": "shrug"},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ConfigurationError):
            RecoveryPolicy(**kwargs)


class TestAttemptRecovery:
    """The engine-agnostic retry loop, driven by a scripted executor."""

    def _outcome(self, detected, small_operands):
        scheme = get_scheme("global")
        faults = [BIG_FAULT] if detected else []
        return get_scheme("global").execute(*small_operands, faults=faults)

    def test_clean_first_outcome_short_circuits(self, small_operands):
        clean = self._outcome(False, small_operands)
        calls = []
        attempt = attempt_recovery(
            lambda f: calls.append(f), clean, [], RecoveryPolicy()
        )
        assert attempt.outcome is clean
        assert attempt.retries == 0 and not calls
        assert not attempt.recovered and not attempt.degraded

    def test_no_policy_is_passthrough(self, small_operands):
        detected = self._outcome(True, small_operands)
        attempt = attempt_recovery(
            lambda f: pytest.fail("must not execute"), detected, [BIG_FAULT], None
        )
        assert attempt.outcome is detected and attempt.retries == 0

    def test_transient_retry_passes_no_faults(self, small_operands):
        detected = self._outcome(True, small_operands)
        seen = []

        def execute(faults):
            seen.append(tuple(faults))
            return self._outcome(False, small_operands)

        attempt = attempt_recovery(
            execute, detected, [BIG_FAULT], RecoveryPolicy(max_retries=3)
        )
        assert seen == [()]
        assert attempt.recovered and attempt.retries == 1
        assert not attempt.outcome.detected

    def test_sticky_retries_original_faults_then_degrades(self, small_operands):
        detected = self._outcome(True, small_operands)
        seen = []

        def execute(faults):
            seen.append(tuple(faults))
            return self._outcome(True, small_operands)

        attempt = attempt_recovery(
            execute,
            detected,
            [BIG_FAULT],
            RecoveryPolicy(max_retries=3, fault_model="sticky"),
        )
        assert seen == [(BIG_FAULT,)] * 3
        assert attempt.degraded and not attempt.recovered
        assert attempt.retries == 3
        # flag-and-propagate keeps the original detected outcome.
        assert attempt.outcome is detected

    def test_sticky_raise_mode(self, small_operands):
        detected = self._outcome(True, small_operands)
        policy = RecoveryPolicy(
            max_retries=2, fault_model="sticky", on_exhausted="raise"
        )
        with pytest.raises(RecoveryError, match="2 retries"):
            attempt_recovery(
                lambda f: self._outcome(True, small_operands),
                detected,
                [BIG_FAULT],
                policy,
                context="fc0",
            )


class TestInferenceRecovery:
    """RecoveryPolicy wired through ProtectedInference.run."""

    def test_transient_recovery_is_bit_identical_to_clean(self, mlp, x):
        engine = ProtectedInference(mlp, get_scheme("global"))
        clean = engine.run(x)
        recovered = engine.run(
            x, faults={"fc0": [BIG_FAULT]}, recovery=RecoveryPolicy()
        )
        assert recovered.recovered and not recovered.degraded
        # The pass continues with the clean retry outcome, so the
        # result-level detection flag is clear after recovery.
        assert not recovered.detected
        assert recovered.total_retries == 1
        assert recovered.output.tobytes() == clean.output.tobytes()

    def test_recovered_pass_commits_clean_operands(self, mlp, x):
        """A detected-and-recovered pass records the clean GEMM view.

        The recovered layer's output is bit-identical to clean, so the
        downstream activations — hence every recorded ``A`` — are the
        clean ones, and the engine may commit them for campaigns.
        """
        engine = ProtectedInference(
            mlp, get_scheme("global"), record_operands=True
        )
        engine.run(x)
        reference = {
            name: (a.tobytes(), b.tobytes())
            for name, (a, b, _tile) in engine.recorded_operands.items()
        }
        engine.recorded_operands.clear()

        engine.run(x, faults={"fc0": [BIG_FAULT]}, recovery=RecoveryPolicy())
        assert set(engine.recorded_operands) == set(reference)
        for name, (a, b, _tile) in engine.recorded_operands.items():
            assert (a.tobytes(), b.tobytes()) == reference[name], name

    @pytest.mark.parametrize(
        "policy, retries",
        [
            (RecoveryPolicy(), 1),
            (RecoveryPolicy(max_retries=2, fault_model="sticky"), 2),
        ],
    )
    def test_retries_reuse_the_one_lookup_per_layer(
        self, mlp, x, key_calls, policy, retries
    ):
        engine = ProtectedInference(mlp, get_scheme("global"))
        EXECUTION_STATS.reset()
        result = engine.run(x, faults={"fc0": [BIG_FAULT]}, recovery=policy)
        assert result.total_retries == retries
        # The first execution and every retry inject into one privately
        # prepared state: one clean GEMM per layer, no content keying.
        assert key_calls == []
        assert EXECUTION_STATS.gemms == len(mlp.linear_names)

    def test_degraded_pass_does_not_commit_operands(self, mlp, x):
        engine = ProtectedInference(
            mlp, get_scheme("global"), record_operands=True
        )
        policy = RecoveryPolicy(max_retries=1, fault_model="sticky")
        result = engine.run(x, faults={"fc0": [BIG_FAULT]}, recovery=policy)
        assert result.degraded
        assert not engine.recorded_operands

    def test_sticky_raise_aborts_the_pass(self, mlp, x):
        engine = ProtectedInference(mlp, get_scheme("global"))
        policy = RecoveryPolicy(
            max_retries=1, fault_model="sticky", on_exhausted="raise"
        )
        with pytest.raises(RecoveryError, match="fc0"):
            engine.run(x, faults={"fc0": [BIG_FAULT]}, recovery=policy)

    def test_undetected_fault_never_retries(self, mlp, x):
        engine = ProtectedInference(mlp, get_scheme("none"))
        result = engine.run(
            x, faults={"fc0": [BIG_FAULT]}, recovery=RecoveryPolicy()
        )
        assert not result.detected
        assert result.total_retries == 0 and not result.recovered
