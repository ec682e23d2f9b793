"""The benchmark's workloads, driven through repro's public API only.

Each workload has three parts.  ``setup`` builds and deploys the model
and runs the first, cache-filling pass.  ``measure`` runs the timed
phase for a fixed number of seconds.  ``check`` verifies what the
timed phase produced.  All inputs derive from the workload seed; the
numeric models' weights are fixed, as a deployed model's are.

* ``serve_fresh``: the numeric ``transformer_encoder`` at batch 8,
  served by a closed loop of two clients through
  ``SessionServer(max_workers=2)``.  Every request carries a new seeded
  input, so every layer misses the prepared cache.
* ``serve_warm``: the layer-GEMM realization of ``resnet50`` at
  h=w=128 (54 GEMMs, global and thread-level layers), served by the
  same loop with input-free requests.  Every layer hits the cache.
* ``fault_study``: the numeric NoScope ``amsterdam`` CNN at batch 8.
  Each round sweeps ``session.campaign(layer).run_batch`` over all six
  planned layers, then runs two propagation batches from ``conv2`` with
  recovery on.  It never touches ``repro.fleet``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.fleet import SessionServer
from repro.nn import build_runnable, runnable_input_shape

from spans import RequestTag

DEVICE = "T4"
POLICY = "guided"
#: Closed-loop clients, equal to the server's worker threads (2 cores).
CLIENTS = 2
#: Weights of the deployed numeric models; the workload seed drives their inputs.
MODEL_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass
class Phase:
    """What one timed phase measured and verified.

    Timings are kept as wall-clock intervals so they can be read on the
    reference clock (:mod:`calibrate`): ``samples`` holds the latency
    samples ``(start, end, units)`` (one request, or a propagation batch
    of ``units`` trials), ``work`` the throughput intervals
    ``(start, end, units)`` and ``active`` the ``(start, end)``
    intervals the timed phase ran in.
    """

    ops: int = 0
    active: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    work: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    roots: set = field(default_factory=set)
    info: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(what)


def _seed_int(*parts: int) -> int:
    """A 32-bit seed derived from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _span(tracer, name, **kwargs):
    """``tracer.span`` when tracing, else a no-op context."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **kwargs)


def _deploy(tracer, name, **kwargs):
    with _span(tracer, "api.deploy"):
        return repro.deploy(name, DEVICE, policy=POLICY, **kwargs)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class _Serve:
    """Closed-loop serving of one session through ``SessionServer``."""

    name = ""

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def request_input(self, rid: int):
        return None

    def measure(self, state, seconds: float, calibrator, tracer=None) -> Phase:
        session = state["session"]
        phase = Phase()
        outputs: dict[int, bytes] = {}
        counter = itertools.count()

        async def client(server, deadline):
            client_sid = tracer.new_id() if tracer is not None else None
            begin = time.perf_counter()
            while time.perf_counter() < deadline:
                rid = next(counter)
                x = self.request_input(rid)
                tag = RequestTag(rid, tracer.new_id()) if tracer is not None else None
                kwargs = {"faults": tag} if tag is not None else {}
                t0 = time.perf_counter()
                if tag is not None:
                    tag.submit = t0
                try:
                    result = await server.handle(x, **kwargs)
                except Exception:  # a failed request is counted, serving goes on
                    phase.attempted += 1
                    phase.fail(f"request {rid}: {traceback.format_exc(limit=2)}")
                    continue
                t1 = time.perf_counter()
                phase.attempted += 1
                phase.samples.append((t0, t1, 1))
                if tag is not None:
                    tracer.record(tag.sid, "fleet.request", t0, t1, client_sid, rid)
                if result.detected:
                    phase.fail(f"request {rid}: clean request flagged as detected")
                    phase.info["false_alarms"] = phase.info.get("false_alarms", 0) + 1
                self.keep_output(rid, result.output, outputs)
            if tracer is not None:
                tracer.record(client_sid, "bench.client", begin, time.perf_counter(), None)
                phase.roots.add(client_sid)

        async def drive():
            with SessionServer(session, max_workers=CLIENTS) as server:
                start = time.perf_counter()
                deadline = start + seconds
                await asyncio.gather(*(client(server, deadline) for _ in range(CLIENTS)))
                return start, time.perf_counter()

        with calibrator.background():
            start, end = asyncio.run(drive())
        phase.active = [(start, end)]
        phase.ops = len(phase.samples)
        phase.work.append((start, end, phase.ops))
        phase.info["outputs"] = outputs
        return phase


class ServeFresh(_Serve):
    """Fresh seeded activations per request: every layer misses the cache."""

    name = "serve_fresh"
    MODEL = "transformer_encoder"
    BATCH = 8
    #: Request ids whose outputs are re-derived on a fresh session.
    CHECK_EVERY = 7
    CHECK_COUNT = 16

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        super().__init__(seed, smoke=smoke)
        self.shape = runnable_input_shape(self.MODEL, batch=self.BATCH)

    def _input(self, *key: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, *key])
        return rng.standard_normal(self.shape).astype(np.float16)

    def request_input(self, rid: int) -> np.ndarray:
        return self._input(1, rid)

    def _build(self, tracer=None):
        model = build_runnable(self.MODEL, batch=self.BATCH, seed=MODEL_SEED)
        if tracer is not None:
            tracer.instrument_model(model)
        return _deploy(tracer, self.MODEL, batch=self.BATCH, runnable=model)

    def setup(self, tracer=None) -> dict:
        session = self._build(tracer)
        session.run(self._input(0))
        return {"session": session}

    def _checked(self, rid: int) -> bool:
        return rid % self.CHECK_EVERY == 0 and rid // self.CHECK_EVERY < self.CHECK_COUNT

    def keep_output(self, rid, output, outputs) -> None:
        if self._checked(rid):
            outputs[rid] = np.ascontiguousarray(output).tobytes()

    def check(self, state, phase: Phase) -> None:
        """Served outputs equal a serial pass on a fresh session, bit for bit."""
        outputs = phase.info.pop("outputs")
        fresh = self._build()
        for rid in sorted(outputs):
            result = fresh.run(self.request_input(rid))
            if np.ascontiguousarray(result.output).tobytes() != outputs[rid]:
                phase.fail(f"request {rid}: served output differs from a fresh session")
        phase.info["verified_outputs"] = len(outputs)


class ServeWarm(_Serve):
    """Input-free layer-GEMM requests: every layer hits the cache."""

    name = "serve_warm"
    MODEL = "resnet50"

    def setup(self, tracer=None) -> dict:
        hw = 32 if self.smoke else 128
        session = _deploy(tracer, self.MODEL, h=hw, w=hw, seed=self.seed)
        if tracer is not None:
            for layer in session.plan.layer_names:
                tracer.register_weights(session.layer_operands(layer)[1], layer)
        first = session.run()
        return {"session": session, "first": np.ascontiguousarray(first.output).tobytes()}

    def keep_output(self, rid, output, outputs) -> None:
        outputs[rid] = np.ascontiguousarray(output).tobytes()

    def check(self, state, phase: Phase) -> None:
        """Every served output equals the first pass's output, bit for bit."""
        outputs = phase.info.pop("outputs")
        for rid in sorted(outputs):
            if outputs[rid] != state["first"]:
                phase.fail(f"request {rid}: output differs from the first pass")
        phase.info["verified_outputs"] = len(outputs)


# ----------------------------------------------------------------------
# Fault study
# ----------------------------------------------------------------------
def _spec_key(spec) -> list:
    return [spec.row, spec.col, spec.kind.value, spec.bit, repr(spec.value), spec.path.value]


def _campaign_key(result) -> list:
    return [
        [[_spec_key(f) for f in t.faults], t.detected, t.significant, t.benign_alarm]
        for t in result.trials
    ]


def _propagation_key(result) -> list:
    return [
        [
            [_spec_key(f) for f in r.faults],
            r.detected,
            r.output_corrupted,
            r.top1_flip,
            r.outcome.value,
            r.retries,
            r.recovered,
            r.degraded,
            r.residual_sdc,
        ]
        for r in result.records
    ]


#: Propagation tallies a fault-study phase keeps.
OUTCOMES = ("trials", "detected", "masked", "recovered", "undetected_sdc", "retries")


class FaultStudy:
    """Campaign sweeps over every planned layer plus SDC propagation."""

    name = "fault_study"
    MODEL = "amsterdam"
    BATCH = 8
    STRUCK = "conv2"
    #: Trials per layer campaign in one sweep.
    TRIALS = 128
    #: Propagation batches per round (latency samples) and trials per batch.
    PROP_BATCHES = 2
    PROP_TRIALS = 4
    GOLDEN_SEED = 0

    def __init__(self, seed: int, *, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.shape = runnable_input_shape(self.MODEL, batch=self.BATCH)

    def setup(self, tracer=None, seed: int | None = None) -> dict:
        seed = self.seed if seed is None else seed
        model = build_runnable(self.MODEL, batch=self.BATCH, seed=MODEL_SEED)
        if tracer is not None:
            tracer.instrument_model(model)
        session = _deploy(tracer, self.MODEL, batch=self.BATCH, runnable=model)
        x = np.random.default_rng([seed, 0]).standard_normal(self.shape).astype(np.float16)
        clean = session.run(x)
        propagation = session.propagation_campaign(
            self.STRUCK, x=x, seed=seed, recovery=repro.RecoveryPolicy()
        )
        return {
            "session": session,
            "x": x,
            "clean": np.ascontiguousarray(clean.output).tobytes(),
            "clean_detected": clean.detected,
            "propagation": propagation,
            "seed": seed,
        }

    def run_round(self, state, index: int, phase: Phase, tracer=None, results=None) -> None:
        """One sweep over every planned layer, then the propagation batches.

        Appends the campaign and propagation results to ``results`` when
        a list is given, for :func:`fingerprint`.
        """
        session, propagation = state["session"], state["propagation"]
        trials = 0
        sweep_start = time.perf_counter()
        for position, layer in enumerate(session.plan.layer_names):
            phase.attempted += 1
            seed = _seed_int(state["seed"], index, position)
            try:
                with _span(tracer, "faults.construct", layer=layer):
                    campaign = session.campaign(layer, seed=seed)
                with _span(tracer, "faults.campaign", layer=layer):
                    result = campaign.run_batch(self.TRIALS)
            except Exception:  # counted as a failed sweep step
                phase.fail(f"round {index} {layer}: {traceback.format_exc(limit=2)}")
                continue
            trials += result.n_trials
            if result.coverage != 1.0:
                phase.fail(f"round {index} {layer}: coverage {result.coverage}")
            if results is not None:
                results.append(result)
        phase.work.append((sweep_start, time.perf_counter(), trials))
        phase.info["trials"] += trials
        for _ in range(self.PROP_BATCHES):
            self._propagate(propagation, index, phase, tracer, results)

    def _propagate(self, propagation, index: int, phase: Phase, tracer, results) -> None:
        """One propagation batch: a latency sample and its outcome tallies."""
        phase.attempted += 1
        start = time.perf_counter()
        try:
            with _span(tracer, "faults.prop", layer=self.STRUCK):
                result = propagation.run_batch(self.PROP_TRIALS)
        except Exception:  # counted as a failed propagation batch
            phase.fail(f"round {index} propagation: {traceback.format_exc(limit=2)}")
            return
        phase.samples.append((start, time.perf_counter(), result.n_trials))
        outcomes = phase.info["outcomes"]
        outcomes["trials"] += result.n_trials
        outcomes["detected"] += result.n_detected
        outcomes["masked"] += result.count(repro.PropagationOutcome.MASKED)
        outcomes["recovered"] += result.n_recovered
        outcomes["undetected_sdc"] += result.n_undetected_sdc
        outcomes["retries"] += result.total_retries
        if results is not None:
            results.append(result)

    @staticmethod
    def _phase() -> Phase:
        phase = Phase()
        phase.info["trials"] = 0
        phase.info["outcomes"] = dict.fromkeys(OUTCOMES, 0)
        return phase

    def measure(self, state, seconds: float, calibrator, tracer=None) -> Phase:
        phase = self._phase()
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            calibrator.probe()
            results = [] if index == 0 else None
            with _span(tracer, "bench.round", rid=index, root=True) as sid:
                self.run_round(state, index, phase, tracer, results)
            if sid is not None:
                phase.roots.add(sid)
            if results is not None:
                phase.info["fingerprint"] = fingerprint(results)
            index += 1
        phase.active = [(start, time.perf_counter())]
        phase.ops = index
        return phase

    def check(self, state, phase: Phase) -> None:
        """The clean pass is unchanged by the study and raises no alarm."""
        phase.attempted += 1
        after = state["session"].run(state["x"])
        if state["clean_detected"] or after.detected:
            phase.fail("clean pass flagged as detected")
            phase.info["false_alarms"] = phase.info.get("false_alarms", 0) + 1
        elif np.ascontiguousarray(after.output).tobytes() != state["clean"]:
            phase.fail("clean pass after the study differs from the pass before it")

    def golden_check(self, phase: Phase) -> None:
        """Round 0 at the golden seed reproduces the committed fingerprint."""
        phase.attempted += 1
        state = self.setup(seed=self.GOLDEN_SEED)
        scratch = self._phase()
        results: list = []
        self.run_round(state, 0, scratch, results=results)
        got = fingerprint(results)
        expected = json.loads(GOLDEN_PATH.read_text())[self.name]
        phase.info["golden"] = {"expected": expected, "got": got}
        if scratch.failed:
            phase.fail(f"golden round failed: {scratch.failures}")
        elif got != expected:
            phase.fail(f"golden fingerprint {got} != committed {expected}")


def fingerprint(results) -> str:
    """Short digest of the records' fault specs and verdicts (no float deltas)."""
    keys = [
        _propagation_key(r) if isinstance(r, repro.PropagationResult) else _campaign_key(r)
        for r in results
    ]
    blob = json.dumps(keys, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


WORKLOADS = {cls.name: cls for cls in (ServeFresh, ServeWarm, FaultStudy)}
