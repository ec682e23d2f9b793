"""End-to-end SDC propagation campaigns with detection-triggered recovery.

The GEMM-level campaigns (:class:`~repro.faults.FaultCampaign`) score
detection *at the struck layer* and stop.  The paper's premise is one
level up: what matters is whether an undetected fault silently corrupts
the **model output** — a top-1 flip, or output divergence beyond
tolerance.  :class:`PropagationCampaign` closes that gap: each trial
injects a fault set into one layer's GEMM via the prepared sparse
engine, carries the corrupted activations through the remaining layers
of the numeric model, and classifies the end-to-end outcome against
the ABFT verdict:

===============  =========  ================  =============================
outcome          detected?  output corrupted  meaning
===============  =========  ================  =============================
masked           no         no                absorbed by quantization /
                                              downstream nonlinearities
detected         yes        yes               ABFT caught real harm
benign-alarm     yes        no                alarm without end-to-end harm
undetected-SDC   no         yes               **silent data corruption**
===============  =========  ================  =============================

Downstream replay is cheap by construction: a corrupted *input*
activation yields a self-consistent downstream GEMM (checksums computed
from the corrupted operand agree with the corrupted output — ABFT
cannot, and should not, fire there), so downstream layers replay
through the raw tiled executor reusing the clean prepared state each
layer's traced pass ran on (:attr:`~repro.nn.inference.TraceStep.prepared`) —
per trial only the struck activations are re-padded and multiplied;
no checksum work, no re-preparation.  Trials whose faults are absorbed
by the FP16 output quantization (or land in the padding region) skip
the replay entirely: their output *is* the clean output.

On detection, an optional :class:`~repro.faults.RecoveryPolicy` runs
the same bounded retry loop the inference engine uses; every recovered
trial is asserted bit-identical to the clean pass — at the layer
boundary always, end to end when ``verify_recovery`` is on.

See DESIGN.md §3 for the taxonomy, retry semantics, and degradation
modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigurationError, FaultInjectionError
from .campaign import FaultCampaign
from .injector import faulted_site_values
from .model import FaultSpec
from .options import CampaignOptions, resolve_option
from .recovery import RecoveryPolicy, attempt_recovery

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..nn.inference import ProtectedInference, TraceStep


class PropagationOutcome(Enum):
    """End-to-end classification of one propagation trial (pre-recovery)."""

    MASKED = "masked"
    DETECTED = "detected"
    BENIGN_ALARM = "benign-alarm"
    UNDETECTED_SDC = "undetected-sdc"


@dataclass(frozen=True)
class PropagationRecord:
    """One propagation trial: GEMM verdict, end-to-end harm, recovery.

    Attributes
    ----------
    faults:
        The trial's injected fault set (struck layer's GEMM).
    detected:
        The struck layer's ABFT verdict.
    output_corrupted:
        The model output diverged from the clean pass (top-1 flip or
        per-element divergence beyond the campaign tolerances), before
        any recovery.
    top1_flip:
        Any sample's argmax changed.
    divergence:
        Largest absolute output divergence (float64; ``inf`` when the
        corrupted output went non-finite, ``0.0`` for masked trials).
    outcome:
        The detection x corruption cross-classification.
    retries, recovered, degraded:
        What the recovery policy did about a detection (all zero/False
        without a policy).
    residual_sdc:
        Output corruption that survives the recovery path: undetected
        SDC always, and detected-but-unrecovered corruption under
        ``flag-and-propagate``.  Recovered trials never carry it.
    """

    faults: tuple[FaultSpec, ...]
    detected: bool
    output_corrupted: bool
    top1_flip: bool
    divergence: float
    outcome: PropagationOutcome
    retries: int = 0
    recovered: bool = False
    degraded: bool = False
    residual_sdc: bool = False


@dataclass
class PropagationResult:
    """Aggregated propagation-campaign statistics."""

    model: str
    layer: str
    scheme: str
    records: list[PropagationRecord] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.records)

    def count(self, outcome: PropagationOutcome) -> int:
        """Trials classified as ``outcome``."""
        return sum(r.outcome is outcome for r in self.records)

    @property
    def n_detected(self) -> int:
        return sum(r.detected for r in self.records)

    @property
    def n_corrupted(self) -> int:
        """Trials whose pre-recovery output was corrupted."""
        return sum(r.output_corrupted for r in self.records)

    @property
    def n_undetected_sdc(self) -> int:
        return self.count(PropagationOutcome.UNDETECTED_SDC)

    @property
    def undetected_sdc_rate(self) -> float:
        """Fraction of trials that silently corrupted the output."""
        if not self.records:
            return 0.0
        return self.n_undetected_sdc / self.n_trials

    @property
    def n_recovered(self) -> int:
        return sum(r.recovered for r in self.records)

    @property
    def n_degraded(self) -> int:
        return sum(r.degraded for r in self.records)

    @property
    def n_residual_sdc(self) -> int:
        """Trials whose corruption survives the recovery path."""
        return sum(r.residual_sdc for r in self.records)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    def crosstab(self) -> dict[tuple[bool, bool], int]:
        """``(detected, output_corrupted) -> count`` over all trials."""
        table: dict[tuple[bool, bool], int] = {
            (False, False): 0, (False, True): 0,
            (True, False): 0, (True, True): 0,
        }
        for r in self.records:
            table[(r.detected, r.output_corrupted)] += 1
        return table


class PropagationCampaign:
    """Inject into one layer, propagate to the model output, classify.

    Parameters
    ----------
    engine:
        The :class:`~repro.nn.ProtectedInference` to trace; the
        struck layer's campaign and the downstream replay run on the
        prepared states of that one clean traced pass.  The trace
        reuses the engine's recorded states where ``x`` repeats the
        last recorded pass, so a campaign built after ``run(x)`` runs
        no clean GEMM.  :meth:`repro.api.ProtectedSession.
        propagation_campaign` uses the session's engine.
    layer:
        The linear layer whose GEMM the faults strike.
    x:
        Model input activations; the campaign runs (and pins) one
        clean traced pass over them at construction.
    seed:
        Seed for the random fault draws (same stream as a
        :class:`~repro.faults.FaultCampaign` with this seed).
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy` applied to every
        detected trial.  A policy with ``on_exhausted="raise"``
        propagates :class:`~repro.errors.RecoveryError` out of
        :meth:`run` on the first exhausted budget; campaigns normally
        measure with ``"flag-and-propagate"``.
    output_rtol, output_atol:
        Per-element divergence tolerances classifying output
        corruption (``|out - clean| > atol + rtol * |clean|``, in
        float64; non-finite divergence always corrupts).
    batch_size:
        Trials per chunked injection call (default: the underlying
        GEMM campaign's auto-tuned size).
    verify_recovery:
        Assert every recovered trial's *end-to-end* output bit-equals
        the clean pass by replaying it (the layer-boundary bit-identity
        check always runs).  Recovered boundaries are byte-identical to
        the clean one, so the replay runs once per campaign.  On by
        default; large throughput sweeps may disable the replay half.
    workers:
        Default worker-process count for :meth:`run`/:meth:`run_batch`
        (both also take a per-call override).  ``None`` or ``1`` runs
        in-process; ``N > 1`` shards each run's trials across a process
        pool sharing the campaign's prepared state, clean baselines,
        and downstream replay ops via shared memory
        (:mod:`repro.faults.parallel`), record-for-record identical to
        the in-process result for a fixed seed.
    options:
        A :class:`~repro.faults.CampaignOptions`; ``seed`` /
        ``batch_size`` / ``workers`` apply here (each settable either
        way, not both), ``significance_factor`` / ``sparse`` forward to
        the struck layer's GEMM campaign, ``detection`` must agree
        with the engine's own, and ``cache`` must be ``None`` (the
        traced states are the engine's, not a cache's).  ``workers``
        is options-only (its keyword alias was removed after one
        deprecated release).

    Examples
    --------
    >>> import numpy as np, repro
    >>> from repro.nn import build_runnable, runnable_input_shape
    >>> session = repro.deploy(
    ...     "mlp_bottom", "T4", batch=4,
    ...     runnable=build_runnable("mlp_bottom", batch=4, seed=0))
    >>> x = np.ones(runnable_input_shape("mlp_bottom", batch=4), np.float16)
    >>> result = session.propagation_campaign("fc1", x=x, seed=3).run_batch(6)
    >>> len(result.records)
    6
    """

    def __init__(
        self,
        engine: "ProtectedInference",
        layer: str,
        x: np.ndarray,
        *,
        seed: int | None = None,
        recovery: RecoveryPolicy | None = None,
        output_rtol: float = 1e-3,
        output_atol: float = 1e-3,
        batch_size: int | None = None,
        verify_recovery: bool = True,
        options: CampaignOptions | None = None,
    ) -> None:
        # workers travels only on the options object.
        workers = options.workers if options is not None else None
        seed = resolve_option(options, "PropagationCampaign", "seed", seed)
        batch_size = resolve_option(
            options, "PropagationCampaign", "batch_size", batch_size
        )
        if seed is None:
            seed = 0
        if options is not None:
            # detection and prepared states are the engine's by
            # construction; an options object that asks otherwise is a
            # wiring error, not a request this campaign can honor.
            if (
                options.detection is not None
                and options.detection != engine.detection
            ):
                raise ConfigurationError(
                    "PropagationCampaign inherits detection constants "
                    "from its engine; options.detection disagrees"
                )
            if options.cache is not None:
                raise ConfigurationError(
                    "PropagationCampaign runs on its engine's traced "
                    "states and takes no PreparedCache; options.cache "
                    "must be None"
                )
        if workers is not None and workers < 1:
            raise FaultInjectionError(
                f"workers must be >= 1, got {workers}"
            )
        self.engine = engine
        self.layer = layer
        self.recovery = recovery
        self.output_rtol = float(output_rtol)
        self.output_atol = float(output_atol)
        self.verify_recovery = verify_recovery
        self.workers = workers
        # Shard workers rebuild the campaign without the engine; keep
        # everything the trial loop touches on the campaign itself.
        self._detection = engine.detection

        # One clean traced pass pins the baseline: per-layer operands,
        # tiles, clean outcomes, and the clean model output.
        trace = engine.trace(x)
        if trace.result.detected:
            raise FaultInjectionError(
                f"model {engine.model.name!r} flags a fault on clean "
                f"data; detection tolerances are miscalibrated"
            )
        self.trace = trace
        names = [s.name for s in trace.steps]
        if layer not in names:
            raise ConfigurationError(
                f"model {engine.model.name!r} has no linear layer "
                f"{layer!r}; linear layers are {names}"
            )
        self._step: "TraceStep" = trace.step(layer)
        self._step_dims = self._step.dims

        # The struck layer rides a full GEMM campaign, built on the
        # prepared state the traced pass ran on, for fault drawing,
        # chunk sizing, and the clean-baseline sanity check.
        self._gemm = FaultCampaign._on_prepared(
            engine.scheme_for(layer),
            self._step.a,
            self._step.b,
            self._step.prepared,
            tile=self._step.tile,
            options=CampaignOptions(
                detection=engine.detection,
                seed=seed,
                batch_size=batch_size,
                significance_factor=(
                    options.significance_factor if options else None
                ),
                sparse=options.sparse if options else None,
            ),
        )
        self._prepared = self._gemm.prepared
        # The struck layer's accumulator→output lowering (FP16 downcast
        # on the float pipeline, dequantize on INT8) comes from its
        # prepared executor, so replayed site values match the scheme's
        # own epilogue bit-for-bit.
        self._epilogue = self._prepared.executor.epilogue
        self._clean_c16 = self._step.outcome.c  # struck layer's clean FP16
        self._clean_output = trace.output
        self._clean_top1 = self._top1(trace.output)
        self._clean_replay_verified = False

        # Downstream replay state: the ops after the struck layer, each
        # linear one paired with the clean prepared state (executor +
        # padded weights) its traced step ran on — per-trial work is
        # pad_a + multiply + crop, nothing else.
        idx = self._step.op_index
        self._struck_op = engine.model.ops[idx]
        self._downstream = [
            (op, trace.step(op.name).prepared if op.is_linear else None)
            for op in engine.model.ops[idx + 1:]
        ]

    # ------------------------------------------------------------------
    def _shard_state(self) -> dict:
        """Everything a shard worker needs, free of engine/trace handles.

        The heavyweight entries (the struck layer's prepared execution,
        clean baselines, downstream ops with their prepared weights)
        are ndarray-bearing object graphs that
        :func:`repro.faults.parallel.export_payload` parks in shared
        memory — a worker attaches zero-copy views, never re-preparing
        or re-tracing anything.
        """
        return {
            "layer": self.layer,
            "recovery": self.recovery,
            "output_rtol": self.output_rtol,
            "output_atol": self.output_atol,
            "verify_recovery": self.verify_recovery,
            "detection": self._detection,
            "prepared": self._prepared,
            "clean_c16": self._clean_c16,
            "clean_output": self._clean_output,
            "clean_top1": self._clean_top1,
            "struck_op": self._struck_op,
            "downstream": self._downstream,
            "step_dims": self._step_dims,
            "batch_size": self._gemm.batch_size,
        }

    @classmethod
    def _from_state(cls, state: dict) -> "PropagationCampaign":
        """Rebuild a replay-capable campaign from :meth:`_shard_state`.

        The shard-worker constructor: no engine, no trace, no GEMM
        campaign — just the attributes :meth:`_run_chunk`,
        :meth:`_replay`, and the recovery checks touch.  Workers never
        draw randomness or aggregate results; the parent owns both.
        """
        self = object.__new__(cls)
        self.engine = None
        self.trace = None
        self._gemm = None
        self._step = None
        self.workers = None
        self.layer = state["layer"]
        self.recovery = state["recovery"]
        self.output_rtol = state["output_rtol"]
        self.output_atol = state["output_atol"]
        self.verify_recovery = state["verify_recovery"]
        self._detection = state["detection"]
        self._prepared = state["prepared"]
        self._epilogue = state["prepared"].executor.epilogue
        self._clean_c16 = state["clean_c16"]
        self._clean_output = state["clean_output"]
        self._clean_top1 = state["clean_top1"]
        self._clean_replay_verified = False
        self._struck_op = state["struck_op"]
        self._downstream = state["downstream"]
        self._step_dims = state["step_dims"]
        return self

    # ------------------------------------------------------------------
    @property
    def downstream_ops(self) -> list[str]:
        """Names of the ops corruption propagates through, in order."""
        return [type(op).__name__ if prepared is None else op.name
                for op, prepared in self._downstream]

    @staticmethod
    def _top1(output: np.ndarray) -> np.ndarray:
        """Per-sample argmax over the flattened output."""
        flat = output.reshape(output.shape[0], -1) if output.ndim > 1 else (
            output.reshape(1, -1)
        )
        return np.argmax(flat, axis=1)

    def _replay(self, c16: np.ndarray) -> np.ndarray:
        """Carry a (possibly corrupted) struck-layer FP16 output to the
        model output, bit-identically to what a protected forward pass
        over the same corrupted activations would compute.

        Downstream linear layers run the raw tiled GEMM against their
        clean prepared state's executor and padded weights — the
        protected path's epilogue (accumulate, crop, lower to FP16)
        with zero checksum work, which is sound because a consistent
        GEMM over corrupted inputs is exactly what the protected pass
        computes and cannot flag.
        """
        activation = self._struck_op.reshape_output(c16, self._step_dims)
        for op, prepared in self._downstream:
            if prepared is None:
                activation = op.forward(activation)
                continue
            a, _, dims = op.lower(activation)
            # The replayed activation's quantization scale stays with
            # this replay: the shared prepared executor is never
            # rescaled (DESIGN.md §2).
            a_pad, a_scale = prepared.executor.quantize_a(a)
            executor = prepared.executor.with_scales(a_scale)
            acc = executor.multiply(
                a_pad, prepared.b_pad, b_wide=prepared.b_wide
            )
            c = executor.epilogue(executor.crop(acc))
            activation = op.reshape_output(c, dims)
        return activation

    def _classify_output(self, final: np.ndarray) -> tuple[bool, bool, float]:
        """``(corrupted, top1_flip, divergence)`` of one replayed output."""
        clean = self._clean_output.astype(np.float64)
        out = final.astype(np.float64)
        with np.errstate(invalid="ignore"):
            diff = np.abs(out - clean)
            tol = self.output_atol + self.output_rtol * np.abs(clean)
            # NaN diff fails `<=`, so non-finite corruption always trips.
            diverged = bool(np.any(~(diff <= tol)))
        top1_flip = bool(np.any(self._top1(final) != self._clean_top1))
        finite = diff[np.isfinite(diff)]
        divergence = float(finite.max(initial=0.0)) if finite.size else 0.0
        if diff.size and not np.isfinite(diff).all():
            divergence = float("inf")
        return diverged or top1_flip, top1_flip, divergence

    # ------------------------------------------------------------------
    def run_batch(
        self,
        n_trials: int,
        *,
        faults_per_trial: int = 1,
        workers: int | None = None,
    ) -> PropagationResult:
        """``n_trials`` random trials, all faults drawn up front."""
        drawn = self._gemm.draw_faults(
            n_trials, faults_per_trial=faults_per_trial
        )
        return self.run(n_trials, specs=drawn, workers=workers)

    def run(
        self,
        n_trials: int,
        specs: Sequence["FaultSpec | Sequence[FaultSpec]"] | None = None,
        *,
        faults_per_trial: int | None = None,
        workers: int | None = None,
    ) -> PropagationResult:
        """Run ``n_trials`` random trials, or the provided fault sets.

        Same specs contract as :meth:`repro.faults.FaultCampaign.run`:
        explicit ``specs`` fully determine the trials (``n_trials``
        must be 0 or ``len(specs)``, ``faults_per_trial`` unset);
        otherwise each trial draws ``faults_per_trial`` random
        original-path faults from the campaign's seeded stream.

        ``workers`` overrides the campaign's default worker count for
        this run: with ``N > 1`` the trials shard across a process pool
        (:mod:`repro.faults.parallel`) sharing the campaign's prepared
        and replay state via shared memory.  Per-trial records are
        independent of shard boundaries, so the merged result is
        record-for-record identical to in-process execution; a worker
        failure raises :class:`~repro.errors.CampaignError`.
        """
        if n_trials < 0:
            raise FaultInjectionError(f"n_trials must be >= 0, got {n_trials}")
        if specs is not None:
            if faults_per_trial is not None:
                raise FaultInjectionError(
                    "faults_per_trial only applies to randomly drawn "
                    "trials; explicit specs already fix each trial's faults"
                )
            if n_trials not in (0, len(specs)):
                raise FaultInjectionError(
                    f"n_trials={n_trials} disagrees with {len(specs)} "
                    f"explicit specs; pass 0 or len(specs)"
                )
            trials = FaultCampaign._normalize_trials(specs)
        else:
            per_trial = 1 if faults_per_trial is None else faults_per_trial
            if per_trial < 1:
                raise FaultInjectionError(
                    f"faults_per_trial must be >= 1, got {per_trial}"
                )
            trials = FaultCampaign._normalize_trials(
                self._gemm.draw_faults(n_trials, faults_per_trial=per_trial)
            )
        result = PropagationResult(
            model=self.engine.model.name,
            layer=self.layer,
            scheme=self._gemm.scheme.name,
        )
        n_workers = self._gemm._resolve_workers(
            workers if workers is not None else self.workers, len(trials)
        )
        if n_workers > 1:
            from .parallel import run_propagation_sharded

            result.records.extend(
                run_propagation_sharded(self, trials, workers=n_workers)
            )
            return result
        batch = self._gemm.batch_size
        for start in range(0, len(trials), batch):
            chunk = trials[start:start + batch]
            result.records.extend(self._run_chunk(chunk))
        return result

    def _run_chunk(
        self, chunk: Sequence[tuple[FaultSpec, ...]]
    ) -> list[PropagationRecord]:
        """Inject one trial chunk, replay unmasked trials, classify."""
        prepared = self._prepared
        sites = faulted_site_values(prepared.c_clean, chunk)
        outcomes = prepared.inject_batch(
            chunk, detection=self._detection, sites=sites,
        )

        # Quantization-masked fast path: a site only affects the model
        # output if it lies inside the logical crop AND its FP16 value
        # differs from the clean one.  Trials with no such site keep
        # the clean output bit-exactly — no replay needed.
        m, n = prepared.problem.m, prepared.problem.n
        in_crop = (sites.rows < m) & (sites.cols < n)
        changed = np.zeros(len(sites), dtype=bool)
        if in_crop.any():
            sel = np.flatnonzero(in_crop)
            new16 = self._epilogue(sites.values[sel])
            old16 = self._clean_c16[sites.rows[sel], sites.cols[sel]]
            changed[sel] = new16 != old16
        per_trial: list[list[int]] = [[] for _ in range(len(chunk))]
        for j, t in enumerate(sites.trials):
            per_trial[int(t)].append(j)

        records: list[PropagationRecord] = []
        for i, faults in enumerate(chunk):
            detected = bool(outcomes[i].detected)
            live = [j for j in per_trial[i] if changed[j]]
            if not live:
                corrupted, top1_flip, divergence = False, False, 0.0
            else:
                c16 = self._clean_c16.copy()
                rows = sites.rows[live]
                cols = sites.cols[live]
                c16[rows, cols] = self._epilogue(sites.values[live])
                corrupted, top1_flip, divergence = self._classify_output(
                    self._replay(c16)
                )
            if detected:
                outcome = (
                    PropagationOutcome.DETECTED
                    if corrupted
                    else PropagationOutcome.BENIGN_ALARM
                )
            else:
                outcome = (
                    PropagationOutcome.UNDETECTED_SDC
                    if corrupted
                    else PropagationOutcome.MASKED
                )
            attempt = attempt_recovery(
                lambda specs: prepared.inject(
                    specs, detection=self._detection
                ),
                outcomes[i],
                faults,
                self.recovery if detected else None,
                context=f"layer {self.layer!r} trial {i}",
            )
            if attempt.recovered:
                self._check_recovered(attempt.outcome)
            records.append(
                PropagationRecord(
                    faults=faults,
                    detected=detected,
                    output_corrupted=corrupted,
                    top1_flip=top1_flip,
                    divergence=divergence,
                    outcome=outcome,
                    retries=attempt.retries,
                    recovered=attempt.recovered,
                    degraded=attempt.degraded,
                    residual_sdc=corrupted and not attempt.recovered,
                )
            )
        return records

    def _check_recovered(self, outcome) -> None:
        """Assert a recovered execution is bit-identical to clean.

        The layer-boundary check always runs (byte equality of the
        FP16 layer outputs — NaN-safe); with ``verify_recovery`` the
        recovered output is additionally replayed end to end and must
        byte-equal the clean model output.  The replay is a pure
        function of the boundary bytes, which the first check just
        proved equal to the clean layer output, so it runs once per
        campaign: every later recovered trial would replay the same
        bytes to the same result.
        """
        recovered_c = np.ascontiguousarray(outcome.c)
        clean_c = np.ascontiguousarray(self._clean_c16)
        if recovered_c.tobytes() != clean_c.tobytes():
            raise FaultInjectionError(
                f"recovered execution of layer {self.layer!r} is not "
                f"bit-identical to the clean layer output — the "
                f"recovery contract is broken"
            )
        if self.verify_recovery and not self._clean_replay_verified:
            replayed = np.ascontiguousarray(self._replay(outcome.c))
            clean_out = np.ascontiguousarray(self._clean_output)
            if replayed.tobytes() != clean_out.tobytes():
                raise FaultInjectionError(
                    f"recovered pass through layer {self.layer!r} does "
                    f"not reproduce the clean model output bit-exactly"
                )
            self._clean_replay_verified = True
