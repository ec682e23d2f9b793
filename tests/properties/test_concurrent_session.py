"""Threaded stress: one ProtectedSession under N concurrent drivers.

The serving layer's contract (DESIGN.md §5): a session is shared
mutable state — prepared cache, lazily built comparison state,
synthesized-operand memo, the inference engine's weight cache and
operand record — and all of it is lock-guarded such that N threads
driving mixed forward-pass and campaign traffic observe exactly what a
serial driver observes.  These tests race real threads through both
session realizations and assert bit-identity with serial execution,
exactly-once preparation, and no cross-talk between recorded operands.
"""

import sys
import threading

import numpy as np
import pytest

import repro
from repro.gemm.executor import EXECUTION_STATS
from repro.nn import build_runnable, runnable_input_shape

N_THREADS = 8
TRIALS = 40


def _race(n_threads, work):
    """Start ``n_threads`` running ``work(i)`` behind one barrier.

    Returns per-thread results; re-raises the first worker exception.
    """
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def driver(i):
        try:
            barrier.wait()
            results[i] = work(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=driver, args=(i,), name=f"stress-{i}")
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _record_key(record):
    delta = record.delta
    return (
        record.faults,
        "nan" if np.isnan(delta) else delta,
        record.detected,
        record.significant,
        record.benign_alarm,
    )


def _campaign_keys(session, layer, seed):
    campaign = session.campaign(layer, seed=seed)
    return [_record_key(r) for r in campaign.run_batch(TRIALS).trials]


class TestLayerGemmSessionStress:
    def test_racing_passes_prepare_each_layer_exactly_once(self):
        session = repro.deploy("mlp_bottom", "T4", batch=16)
        before = EXECUTION_STATS.gemms
        outputs = _race(N_THREADS, lambda i: session.run().output)
        clean_gemms = EXECUTION_STATS.gemms - before
        # Preparation is exactly-once per layer even under the race —
        # the cache's prepare-inside-lock contract, measured.
        assert clean_gemms == len(session.plan)
        serial = repro.deploy("mlp_bottom", "T4", batch=16).run().output
        for output in outputs:
            np.testing.assert_array_equal(output, serial)

    def test_racing_first_passes_hold_one_state_per_layer(self):
        session = repro.deploy("mlp_bottom", "T4", batch=16)
        held = []
        layer_state = session._layer_state

        def recording(layer):
            state = layer_state(layer)
            held.append((layer, state))
            return state

        session._layer_state = recording
        before = EXECUTION_STATS.gemms
        outputs = _race(2, lambda i: session.run().output)
        assert EXECUTION_STATS.gemms - before == len(session.plan)
        np.testing.assert_array_equal(outputs[0], outputs[1])
        assert len(held) == 2 * len(session.plan)
        for layer in session.plan.layer_names:
            states = [state for name, state in held if name == layer]
            a, b, _ = session.layer_operands(layer)
            shared = session.cache.get(session.scheme_for(layer), a, b)
            # Both threads ran the one state the shared cache prepared.
            assert all(state is shared for state in states)

    def test_mixed_forward_and_campaign_traffic_matches_serial(self):
        threaded = repro.deploy("mlp_bottom", "T4", batch=16)
        layers = threaded.plan.layer_names

        def work(i):
            layer = layers[i % len(layers)]
            if i % 2:
                return ("run", threaded.run().output)
            return ("campaign", layer, _campaign_keys(threaded, layer, i))

        results = _race(N_THREADS, work)

        serial = repro.deploy("mlp_bottom", "T4", batch=16)
        serial_output = serial.run().output
        for i, result in enumerate(results):
            if result[0] == "run":
                np.testing.assert_array_equal(result[1], serial_output)
            else:
                _, layer, keys = result
                assert keys == _campaign_keys(serial, layer, i), (
                    f"campaign records diverged on layer {layer!r} "
                    f"(seed {i}) under concurrency"
                )

    def test_racing_campaigns_on_one_layer_share_one_preparation(self):
        session = repro.deploy("mlp_bottom", "T4", batch=16)
        layer = session.plan.layer_names[0]
        before = EXECUTION_STATS.gemms
        keys = _race(4, lambda i: _campaign_keys(session, layer, 7))
        assert EXECUTION_STATS.gemms - before == 1
        # Same layer + same seed: every thread saw identical trials.
        assert all(k == keys[0] for k in keys)


class TestNumericSessionStress:
    @pytest.fixture()
    def deployed(self):
        batch = 4
        runnable = build_runnable("mlp_bottom", batch=batch, seed=3)
        session = repro.deploy(
            "mlp_bottom", "T4", batch=batch, runnable=runnable
        )
        x = (
            np.random.default_rng([3, 1])
            .standard_normal(runnable_input_shape("mlp_bottom", batch=batch))
            * 0.5
        ).astype(np.float16)
        return session, x

    def test_recorded_operands_bit_identical_with_serial(self, deployed):
        session, x = deployed
        outputs = _race(N_THREADS, lambda i: session.run(x).output)

        serial_runnable = build_runnable("mlp_bottom", batch=4, seed=3)
        serial = repro.deploy(
            "mlp_bottom", "T4", batch=4, runnable=serial_runnable
        )
        serial_output = serial.run(x).output
        for output in outputs:
            np.testing.assert_array_equal(output, serial_output)
        # The operand record is the campaign attack surface: racing
        # passes over one input must leave exactly the serial record.
        assert set(session.engine.recorded_operands) == set(
            serial.engine.recorded_operands
        )
        for name, (a, b, tile) in serial.engine.recorded_operands.items():
            ra, rb, rtile = session.engine.recorded_operands[name]
            np.testing.assert_array_equal(ra, a)
            np.testing.assert_array_equal(rb, b)
            assert rtile == tile

    def test_no_cross_talk_between_per_thread_inputs(self, deployed):
        session, x = deployed
        rng = np.random.default_rng(11)
        inputs = [
            (rng.standard_normal(x.shape) * 0.5).astype(np.float16)
            for _ in range(N_THREADS)
        ]

        def work(i):
            return session.run(inputs[i]).output

        outputs = _race(N_THREADS, work)
        # Each thread's output is its own input's serial answer — a
        # pass never observes another thread's activations mid-flight.
        fresh_runnable = build_runnable("mlp_bottom", batch=4, seed=3)
        fresh = repro.deploy(
            "mlp_bottom", "T4", batch=4, runnable=fresh_runnable
        )
        for i, output in enumerate(outputs):
            np.testing.assert_array_equal(output, fresh.run(inputs[i]).output)
        # And the committed record is one whole pass, not an
        # interleaving: the (a, b) pair of every layer must belong to
        # a single input's activation flow.
        recorded = session.engine.recorded_operands
        candidates = []
        for inp in inputs:
            fresh.run(inp)
            candidates.append({
                name: fresh.engine.recorded_operands[name][0].tobytes()
                for name in recorded
            })
        observed = {
            name: recorded[name][0].tobytes() for name in recorded
        }
        assert observed in candidates, (
            "recorded operands mix activations from different passes"
        )

    def test_concurrent_campaigns_over_recorded_operands(self, deployed):
        session, x = deployed
        session.run(x)
        layers = session.plan.layer_names

        def work(i):
            layer = layers[i % len(layers)]
            return layer, i, _campaign_keys(session, layer, i)

        results = _race(N_THREADS, work)

        serial_runnable = build_runnable("mlp_bottom", batch=4, seed=3)
        serial = repro.deploy(
            "mlp_bottom", "T4", batch=4, runnable=serial_runnable
        )
        serial.run(x)
        for layer, seed, keys in results:
            assert keys == _campaign_keys(serial, layer, seed)

    def test_campaigns_racing_fresh_passes_pair_operands_with_state(
        self, deployed
    ):
        """A campaign's operands and its held state come from one pass.

        Campaigns are built on the recorded state by identity while
        other threads commit passes over new inputs; neither may pair
        one pass's ``a`` with another pass's prepared state.
        """
        session, x = deployed
        session.run(x)
        rng = np.random.default_rng(17)
        inputs = [
            (rng.standard_normal(x.shape) * 0.5).astype(np.float16)
            for _ in range(N_THREADS)
        ]
        layers = session.plan.layer_names
        passes_left = [N_THREADS // 2]
        done = threading.Event()
        lock = threading.Lock()

        def work(i):
            if i % 2:
                for j in range(3):
                    session.run(inputs[(i + j) % N_THREADS])
                with lock:
                    passes_left[0] -= 1
                    if not passes_left[0]:
                        done.set()
                return []
            built = []
            # Keep building until every pass has committed, so builds
            # interleave with the commits.
            while not done.is_set() or not built:
                built.extend(
                    (layer, session.campaign(layer, seed=i))
                    for layer in layers
                )
            return built

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _race(N_THREADS, work)
        finally:
            sys.setswitchinterval(interval)
        built = [pair for result in results for pair in result]
        assert built
        # One check per distinct (operands, state) pairing observed.
        pairings = {
            (id(c.a), id(c.prepared)): (layer, c) for layer, c in built
        }
        for layer, campaign in pairings.values():
            held = campaign.prepared
            fetched = session.cache.get(
                session.scheme_for(layer), campaign.a, campaign.b,
                tile=campaign.tile,
            )
            if fetched is not held:
                np.testing.assert_array_equal(fetched.a_pad, held.a_pad)
                np.testing.assert_array_equal(fetched.c_clean, held.c_clean)
