"""Tests for numeric protected inference."""

import numpy as np
import pytest

from repro.abft import GlobalABFT, NoProtection, ThreadLevelOneSided
from repro.errors import ModelZooError, ShapeError
from repro.faults import FaultKind, FaultSpec
from repro.nn import ProtectedInference, SequentialModel
from repro.nn.inference import Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, ReLU
from repro.nn.layers import Conv2dSpec, LinearSpec
from repro.nn.transformer import TransformerBlockSpec, build_transformer_runnable


@pytest.fixture
def tiny_cnn(rng):
    """conv(3->8) -> relu -> pool -> conv(8->8) -> relu -> flatten -> fc(2)."""
    c1 = Conv2dSpec(3, 8, kernel=3, padding=1)
    c2 = Conv2dSpec(8, 8, kernel=3, padding=1)
    fc = LinearSpec(8 * 5 * 5, 2)
    ops = [
        Conv2d(c1, SequentialModel.random_weights_conv(c1, rng), name="conv0"),
        ReLU(),
        MaxPool2d(2, 2),
        Conv2d(c2, SequentialModel.random_weights_conv(c2, rng), name="conv1"),
        ReLU(),
        Flatten(),
        Linear(fc, SequentialModel.random_weights_linear(fc, rng), name="fc"),
    ]
    return SequentialModel(ops, name="tiny")


@pytest.fixture
def tiny_input(rng):
    return (rng.standard_normal((2, 3, 10, 10)) * 0.5).astype(np.float16)


class TestForwardPass:
    def test_output_shape(self, tiny_cnn, tiny_input):
        engine = ProtectedInference(tiny_cnn, NoProtection())
        result = engine.run(tiny_input)
        assert result.output.shape == (2, 2)
        assert not result.detected

    def test_linear_names(self, tiny_cnn):
        assert tiny_cnn.linear_names == ["conv0", "conv1", "fc"]

    def test_protected_output_matches_unprotected(self, tiny_cnn, tiny_input):
        unprotected = ProtectedInference(tiny_cnn, NoProtection()).run(tiny_input)
        protected = ProtectedInference(tiny_cnn, ThreadLevelOneSided()).run(tiny_input)
        np.testing.assert_allclose(
            protected.output.astype(np.float32),
            unprotected.output.astype(np.float32),
            rtol=5e-3, atol=1e-3,
        )

    def test_layer_outcomes_recorded(self, tiny_cnn, tiny_input):
        result = ProtectedInference(tiny_cnn, GlobalABFT()).run(tiny_input)
        assert [rec.name for rec in result.layer_outcomes] == ["conv0", "conv1", "fc"]
        assert all(rec.scheme == "global" for rec in result.layer_outcomes)


class TestPerLayerSchemes:
    def test_scheme_map_applied(self, tiny_cnn, tiny_input):
        schemes = {"conv0": ThreadLevelOneSided(), "fc": GlobalABFT()}
        engine = ProtectedInference(
            tiny_cnn, schemes, default_scheme=NoProtection()
        )
        result = engine.run(tiny_input)
        by_name = {rec.name: rec.scheme for rec in result.layer_outcomes}
        assert by_name == {"conv0": "thread_onesided", "conv1": "none", "fc": "global"}


    def test_unknown_scheme_key_rejected(self, tiny_cnn):
        """A typo'd layer name must not silently deploy NoProtection."""
        with pytest.raises(ModelZooError, match="conv2"):
            ProtectedInference(
                tiny_cnn, {"conv0": GlobalABFT(), "conv2": GlobalABFT()}
            )


class TestSharedCache:
    def test_cached_passes_bit_identical(self, tiny_cnn, tiny_input):
        from repro.abft import PreparedCache

        plain = ProtectedInference(tiny_cnn, GlobalABFT()).run(tiny_input)
        cached_engine = ProtectedInference(
            tiny_cnn, GlobalABFT(), cache=PreparedCache()
        )
        cached = cached_engine.run(tiny_input)
        np.testing.assert_array_equal(cached.output, plain.output)

        from repro.gemm import EXECUTION_STATS

        EXECUTION_STATS.reset()
        repeat = cached_engine.run(tiny_input)
        assert EXECUTION_STATS.gemms == 0
        np.testing.assert_array_equal(repeat.output, plain.output)

    def test_recorded_operands(self, tiny_cnn, tiny_input):
        engine = ProtectedInference(
            tiny_cnn, GlobalABFT(), record_operands=True
        )
        assert engine.recorded_operands == {}
        engine.run(tiny_input)
        assert set(engine.recorded_operands) == {"conv0", "conv1", "fc"}
        a, b, tile = engine.recorded_operands["conv1"]
        assert a.shape[1] == b.shape[0] and tile is not None
        assert not a.flags.writeable
        ra, rb, rtile, prepared = engine.recorded_layer("conv1")
        assert ra is a and rb is b and rtile == tile == prepared.tile


    def test_single_row_attention_records_its_own_copy(self):
        # One decode row: the attention query slice lowers to a view of
        # the qkv layer's output, which the caller holds; the record
        # must not alias it.
        spec = TransformerBlockSpec(d_model=64, n_heads=2, d_ff=128, seq_len=1)
        model = build_transformer_runnable("transformer_decoder", spec=spec)
        engine = ProtectedInference(model, GlobalABFT(), record_operands=True)
        x = np.random.default_rng(0).standard_normal((1, 64)).astype(np.float16)
        result = engine.run(x)
        qkv_out = result.layer_outcomes[0].outcome.c
        a, _, _ = engine.recorded_operands["attn.h0.scores"]
        assert not np.shares_memory(a, qkv_out)
        assert not a.flags.writeable


class TestFaultInjectionDuringInference:
    def test_fault_in_middle_layer_detected(self, tiny_cnn, tiny_input):
        engine = ProtectedInference(tiny_cnn, ThreadLevelOneSided())
        fault = FaultSpec(row=3, col=2, kind=FaultKind.ADD, value=50.0)
        result = engine.run(tiny_input, faults={"conv1": [fault]})
        assert result.detected
        detected_layers = [r.name for r in result.layer_outcomes if r.detected]
        assert detected_layers == ["conv1"]

    def test_fault_corrupts_downstream_output(self, tiny_cnn, tiny_input):
        clean = ProtectedInference(tiny_cnn, NoProtection()).run(tiny_input)
        fault = FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=50.0)
        faulty = ProtectedInference(tiny_cnn, NoProtection()).run(
            tiny_input, faults={"conv0": [fault]}
        )
        assert not np.allclose(
            clean.output.astype(np.float32), faulty.output.astype(np.float32)
        )

    def test_unknown_fault_target_rejected(self, tiny_cnn, tiny_input):
        engine = ProtectedInference(tiny_cnn, NoProtection())
        with pytest.raises(ModelZooError):
            engine.run(tiny_input, faults={"nonexistent": []})


class TestOps:
    def test_relu(self):
        x = np.array([[-1.0, 2.0]], dtype=np.float16)
        np.testing.assert_array_equal(ReLU().forward(x), [[0.0, 2.0]])

    def test_maxpool(self):
        x = np.arange(16, dtype=np.float16).reshape(1, 1, 4, 4)
        out = MaxPool2d(2, 2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_global_avg_pool(self):
        x = np.ones((1, 3, 4, 4), dtype=np.float16) * 2
        out = GlobalAvgPool().forward(x)
        assert out.shape == (1, 3, 1, 1)
        np.testing.assert_allclose(out.ravel(), [2, 2, 2])

    def test_flatten_requires_nchw(self):
        with pytest.raises(ShapeError):
            Flatten().forward(np.zeros((2, 3), dtype=np.float16))

    def test_conv_weight_shape_validated(self, rng):
        spec = Conv2dSpec(3, 8, kernel=3)
        with pytest.raises(ShapeError):
            Conv2d(spec, np.zeros((8, 3, 5, 5), dtype=np.float16))

    def test_grouped_conv_rejected_numerically(self, rng):
        spec = Conv2dSpec(4, 4, kernel=3, groups=2)
        with pytest.raises(ModelZooError):
            Conv2d(spec, np.zeros((4, 2, 3, 3), dtype=np.float16))


class TestWeightCache:
    """Repeated forward passes reuse cached per-layer weight checksums."""

    def test_second_pass_zero_weight_reductions(self, tiny_cnn, tiny_input):
        from repro.gemm import EXECUTION_STATS

        engine = ProtectedInference(tiny_cnn, GlobalABFT())
        engine.run(tiny_input)  # first pass builds and caches weight state
        assert len(engine._weight_cache) == 3
        EXECUTION_STATS.reset()
        engine.run(tiny_input)
        assert EXECUTION_STATS.weight_reductions == 0
        # The activation-dependent half still runs per layer.
        assert EXECUTION_STATS.gemms == 3
        assert EXECUTION_STATS.activation_reductions == 3

    def test_cached_passes_bit_identical(self, tiny_cnn, tiny_input):
        cached = ProtectedInference(tiny_cnn, ThreadLevelOneSided())
        first = cached.run(tiny_input)
        second = cached.run(tiny_input)
        np.testing.assert_array_equal(first.output, second.output)
        for rec1, rec2 in zip(first.layer_outcomes, second.layer_outcomes):
            np.testing.assert_array_equal(
                rec1.outcome.c_accumulator, rec2.outcome.c_accumulator
            )
            assert rec1.outcome.verdict == rec2.outcome.verdict

    def test_fresh_engine_matches_cached_engine(self, tiny_cnn, tiny_input):
        warm = ProtectedInference(tiny_cnn, GlobalABFT())
        warm.run(tiny_input)
        cached_result = warm.run(tiny_input)
        fresh_result = ProtectedInference(tiny_cnn, GlobalABFT()).run(tiny_input)
        np.testing.assert_array_equal(cached_result.output, fresh_result.output)

    def test_fault_detection_unaffected_by_cache(self, tiny_cnn, tiny_input):
        engine = ProtectedInference(tiny_cnn, GlobalABFT())
        engine.run(tiny_input)
        fault = FaultSpec(row=3, col=2, kind=FaultKind.ADD, value=50.0)
        result = engine.run(tiny_input, faults={"conv1": [fault]})
        assert result.detected

    def test_one_entry_serves_every_batch_size(self, tiny_cnn, tiny_input):
        """The weight-side state is m-independent: a different batch
        size reuses the same cache entries with zero new weight-side
        reductions."""
        from repro.gemm import EXECUTION_STATS

        engine = ProtectedInference(tiny_cnn, GlobalABFT())
        engine.run(tiny_input)
        assert len(engine._weight_cache) == 3
        doubled = np.concatenate([tiny_input, tiny_input], axis=0)
        EXECUTION_STATS.reset()
        result = engine.run(doubled)
        assert EXECUTION_STATS.weight_reductions == 0
        assert len(engine._weight_cache) == 3
        assert not result.detected
        assert result.output.shape[0] == doubled.shape[0]

    def test_other_batch_size_output_matches_fresh_engine(
        self, tiny_cnn, tiny_input
    ):
        """Warm-cache execution at a new activation row count must agree
        with a fresh engine (the pinned tile is a legal configuration
        for any m)."""
        doubled = np.concatenate([tiny_input, tiny_input], axis=0)
        warm = ProtectedInference(tiny_cnn, GlobalABFT())
        warm.run(tiny_input)  # pins each layer's tile at batch size 1
        warm_result = warm.run(doubled)
        fresh_result = ProtectedInference(tiny_cnn, GlobalABFT()).run(doubled)
        np.testing.assert_allclose(
            warm_result.output.astype(np.float32),
            fresh_result.output.astype(np.float32),
            rtol=5e-3, atol=5e-3,
        )
