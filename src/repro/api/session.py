"""Protected sessions: a deployed model as one executable object.

:class:`ProtectedSession` is the numeric half of the deployment API.
Given a :class:`~repro.api.plan.DeploymentPlan` it instantiates the
plan's schemes from the registry, owns one shared
:class:`~repro.abft.base.PreparedCache`, and exposes the two things a
deployment does — protected forward passes (:meth:`ProtectedSession.run`)
and fault campaigns against any linear layer
(:meth:`ProtectedSession.campaign`) — with all fault-invariant work
(padding, tile selection, the clean GEMM, operand checksums) executed
exactly once per layer across everything the session runs.

Two realizations of the deployed model are supported:

* **Numeric** (``model=`` a :class:`~repro.nn.SequentialModel` whose
  linear-layer names match the plan): forward passes run real
  activation flow through a :class:`~repro.nn.ProtectedInference`,
  which prepares each fresh activation privately (a byte-identical
  repeat reuses the recorded states), and campaigns attack exactly the
  GEMM operands — and the prepared states — the last forward pass
  executed.
* **Layer-GEMM** (no ``model``): each planned layer's GEMM is realized
  with seeded synthetic FP16 operands of the planned shape — the
  paper's view of a NN as its sequence of linear-layer GEMMs.  Forward
  passes execute every layer's protected GEMM in order; campaigns
  attack the same synthesized operands.  This is what makes a plan
  deserialized from JSON runnable with nothing else on hand.  The
  operands are read-only and the session holds each layer's prepared
  state by identity after the first pass, so a warm pass does no
  operand keying and no clean GEMM.

:func:`deploy` is the three-line entry point: model name + device →
policy → session.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

import numpy as np

from ..abft.base import PreparedCache, PreparedExecution
from ..config import DetectionConstants
from ..errors import ConfigurationError
from ..faults.campaign import FaultCampaign
from ..faults.model import FaultSpec
from ..faults.options import CampaignOptions, resolve_option
from ..faults.propagation import PropagationCampaign
from ..faults.recovery import RecoveryPolicy, attempt_recovery
from ..gemm.tiles import TileConfig
from ..gpu.specs import GPUSpec, get_gpu
from ..nn.graph import ModelGraph
from ..nn.inference import (
    InferenceResult,
    LayerOutcome,
    ProtectedInference,
    SequentialModel,
)
from ..nn.models import build_model
from .plan import DeploymentPlan
from .policy import SchemePolicy, as_policy


class ProtectedSession:
    """A deployed model: plan + schemes + one shared prepared cache.

    Parameters
    ----------
    plan:
        The deployment plan (from a policy, or deserialized JSON).
    model:
        Optional numeric realization.  Its linear-layer names must
        match the plan's layers exactly; without it the session runs
        the layer-GEMM realization (see module docstring).
    seed:
        Seed for the synthesized layer operands of the layer-GEMM
        realization (deterministic per layer, independent of call
        order).
    cache:
        Share a :class:`~repro.abft.base.PreparedCache` across
        sessions (e.g. a fleet family, or device sweeps over one
        model); by default the session owns a private one, LRU-bounded
        to a few entries per layer.  The cache serves the layer-GEMM
        realization, which fetches each layer's state from it on the
        first pass and then holds it by identity (``cache.clear()`` or
        eviction does not drop it), and campaigns built with
        ``options.cache``.  Numeric forward passes never touch it: they
        prepare fresh activations privately and reuse the engine's
        recorded states on a byte-identical repeat.
    detection:
        Detection constants for forward passes and campaign defaults;
        ``None`` (default) resolves per layer to the deployed scheme's
        :attr:`~repro.abft.Scheme.default_detection` — FP16 layers get
        the rounding-noise tolerance, INT8 layers the exact-integer
        half-ULP threshold.
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy` applied by
        default to every :meth:`run` (both realizations) and inherited
        by :meth:`propagation_campaign`: a detected layer is re-executed
        within the policy's retry budget, then the pass degrades per
        the policy.  ``None`` (default) keeps the detect-and-report
        behavior.
    """

    def __init__(
        self,
        plan: DeploymentPlan,
        *,
        model: SequentialModel | None = None,
        seed: int = 0,
        cache: PreparedCache | None = None,
        detection: DetectionConstants | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.detection = detection
        self.recovery = recovery
        if cache is None:
            cache = PreparedCache(maxsize=max(8, 4 * len(plan.layers)))
        self.cache = cache
        self.schemes = plan.build_schemes()
        self.model = model
        self.engine: ProtectedInference | None = None
        if model is not None:
            plan.validate_layer_names(model.linear_names)
            self.engine = ProtectedInference(
                model,
                self.schemes,
                record_operands=True,
                detection=detection,
            )
        self._synthesized: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # Layer-GEMM states held by identity once the first pass has
        # fetched them: later passes never re-key their operands.
        self._held: dict[str, PreparedExecution] = {}
        # Guards both memos: concurrent campaigns and layer-GEMM passes
        # may race to realize one layer, and each must observe the same
        # (deterministically seeded) arrays and prepared state.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def device(self) -> str:
        """The plan's target device label."""
        return self.plan.device

    def scheme_for(self, layer: str):
        """The scheme instance deployed on the named layer."""
        try:
            return self.schemes[layer]
        except KeyError:
            raise ConfigurationError(
                f"session for {self.plan.model!r} has no layer {layer!r}; "
                f"layers are {self.plan.layer_names}"
            ) from None

    # ------------------------------------------------------------------
    def _synthesized_operands(
        self, layer: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Seeded FP16 operands of the planned shape for one layer.

        Deterministic for a given (session seed, layer): every run and
        campaign over the session sees bit-identical operands — which
        is what lets the shared cache collapse their clean GEMMs into
        one execution.
        """
        entry = self.plan.layer(layer)
        index = self.plan.layer_names.index(layer)
        with self._lock:
            # Synthesis runs inside the critical section so racing
            # callers share one set of buffers and the memo is only
            # ever touched under the lock (RL002).  The draw is cheap
            # relative to the clean GEMM it feeds, so serializing it
            # costs nothing measurable.
            cached = self._synthesized.get(layer)
            if cached is not None:
                return cached
            rng = np.random.default_rng([self.seed, index])
            a = (rng.standard_normal((entry.m, entry.k)) * 0.5).astype(np.float16)
            b = (rng.standard_normal((entry.k, entry.n)) * 0.5).astype(np.float16)
            # Held prepared states stand in for these bytes, so no
            # caller may change them.
            a.flags.writeable = False
            b.flags.writeable = False
            self._synthesized[layer] = (a, b)
            return a, b

    def _layer_state(self, layer: str) -> PreparedExecution:
        """The layer-GEMM realization's prepared state for one layer.

        The first request fetches it through the session cache, so
        campaigns (and a shared fleet-family cache) keep sharing the
        one entry and its clean GEMM; the session then holds it by
        identity, and later requests skip keying the operands.  The
        synthesized operands are read-only, so the held state cannot go
        stale.
        """
        with self._lock:
            held = self._held.get(layer)
        if held is not None:
            return held
        a, b = self._synthesized_operands(layer)
        prepared = self.cache.get(self.schemes[layer], a, b)
        with self._lock:
            # Racing first passes both fetched from the cache (one clean
            # GEMM, one entry); the first to publish wins either way.
            return self._held.setdefault(layer, prepared)

    def layer_operands(
        self, layer: str
    ) -> tuple[np.ndarray, np.ndarray, TileConfig | None]:
        """The GEMM operands ``(a, b, tile)`` campaigns attack.

        Numeric sessions return the operands (and pinned tile) of the
        named layer's most recent forward pass; run one first.  The
        layer-GEMM realization returns the synthesized operands (tile
        ``None`` — the campaign resolves the default), read-only: the
        session's held prepared state stands in for their bytes.
        """
        self.plan.layer(layer)  # validates the name
        if self.engine is not None:
            return self._recorded(layer)[:3]
        a, b = self._synthesized_operands(layer)
        return a, b, None

    def _recorded(
        self, layer: str
    ) -> tuple[np.ndarray, np.ndarray, TileConfig, PreparedExecution]:
        """A numeric session's recorded ``(a, b, tile, prepared)``.

        Operands and the state they executed on come from one
        committed forward pass; raises until a pass has recorded the
        layer.
        """
        recorded = self.engine.recorded_layer(layer)
        if recorded is None:
            raise ConfigurationError(
                f"no recorded operands for layer {layer!r}: run a "
                f"forward pass first so the campaign attacks the GEMM "
                f"the deployment actually executes"
            )
        return recorded

    # ------------------------------------------------------------------
    def run(
        self,
        x: np.ndarray | None = None,
        *,
        faults: Mapping[str, Sequence[FaultSpec]] | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> InferenceResult:
        """One protected pass over the deployed model.

        Numeric sessions require the input activations ``x`` and run
        real inference; the layer-GEMM realization takes no input and
        executes every planned layer's protected GEMM in order (the
        result's ``output`` is the final layer's logical output; the
        other layers' ``outcome.c`` render lazily on first access).
        ``faults`` maps linear-layer names to fault specs injected
        into that layer's GEMM, on either realization.  ``recovery``
        overrides the session's default policy for this pass (pass a
        policy to enable, or rely on the session-level one); detected
        layers are then retried within the policy's budget, with
        per-layer results on the returned ``layer_outcomes``.
        """
        policy = recovery if recovery is not None else self.recovery
        if self.engine is not None:
            if x is None:
                raise ConfigurationError(
                    "this session wraps a numeric model; run(x) needs "
                    "input activations"
                )
            return self.engine.run(x, faults=faults, recovery=policy)
        if x is not None:
            raise ConfigurationError(
                "this session runs the layer-GEMM realization (no numeric "
                "model was attached); run() takes no input activations"
            )
        faults = dict(faults or {})
        unknown = set(faults) - set(self.plan.layer_names)
        if unknown:
            raise ConfigurationError(
                f"fault targets not in plan: {sorted(unknown)}"
            )
        result = InferenceResult(output=np.empty(0, dtype=np.float16))
        for entry in self.plan:
            prepared = self._layer_state(entry.name)
            layer_faults = tuple(faults.get(entry.name, ()))
            attempt = attempt_recovery(
                lambda specs: prepared.inject(specs, detection=self.detection),
                prepared.inject(layer_faults, detection=self.detection),
                layer_faults,
                policy,
                context=f"layer {entry.name!r}",
            )
            result.layer_outcomes.append(
                LayerOutcome(
                    name=entry.name,
                    scheme=attempt.outcome.scheme,
                    outcome=attempt.outcome,
                    retries=attempt.retries,
                    recovered=attempt.recovered,
                    degraded=attempt.degraded,
                )
            )
        if result.layer_outcomes:
            # Only the final layer's output is read; every other
            # layer's ``outcome.c`` stays lazy.
            result.output = result.layer_outcomes[-1].outcome.c
        return result

    # ------------------------------------------------------------------
    def campaign(
        self,
        layer: str | None = None,
        *,
        seed: int | None = None,
        significance_factor: float | None = None,
        batch_size: int | None = None,
        sparse: bool | None = None,
        options: CampaignOptions | None = None,
    ) -> FaultCampaign:
        """A prepared :class:`~repro.faults.FaultCampaign` on one layer.

        The campaign is built on the prepared state the session
        already holds for the layer — the state the last recorded
        forward pass executed on (numeric), or the held layer state
        (layer-GEMM) — so it shares the layer's clean GEMM with every
        forward pass (and every other campaign on that layer) the
        session runs, and building it neither re-keys the operands nor
        runs a GEMM.  Whole-model fault studies pay the expensive half
        once, total.
        ``layer`` may be omitted for single-layer plans; campaign
        parameters — individually, or bundled in ``options=``
        (:class:`~repro.faults.CampaignOptions`) — are forwarded to
        :class:`~repro.faults.FaultCampaign`
        (``options=CampaignOptions(workers=N)`` makes every run of the
        returned campaign shard across ``N`` worker processes by
        default).  ``detection`` / ``workers`` are options-only fields
        (their keyword aliases were removed after one deprecated
        release); ``options.cache``, if given, must be the session's
        own cache.

        Example
        -------
        >>> import repro
        >>> session = repro.deploy("mlp_bottom", "T4", batch=32)
        >>> campaign = session.campaign(layer="fc1", seed=1)
        >>> result = campaign.run_batch(40)
        >>> result.n_trials
        40
        >>> 0.0 <= result.coverage <= 1.0
        True
        """
        owner = "ProtectedSession.campaign"
        detection = options.detection if options is not None else None
        workers = options.workers if options is not None else None
        seed = resolve_option(options, owner, "seed", seed)
        significance_factor = resolve_option(
            options, owner, "significance_factor", significance_factor
        )
        batch_size = resolve_option(options, owner, "batch_size", batch_size)
        sparse = resolve_option(options, owner, "sparse", sparse)
        if options is not None and options.cache is not None:
            if options.cache is not self.cache:
                raise ConfigurationError(
                    "session campaigns always use the session's shared "
                    "cache; options.cache is a different cache"
                )
        if layer is None:
            if len(self.plan) != 1:
                raise ConfigurationError(
                    f"plan for {self.plan.model!r} has "
                    f"{len(self.plan)} layers; pass layer= one of "
                    f"{self.plan.layer_names}"
                )
            layer = self.plan.layer_names[0]
        scheme = self.scheme_for(layer)  # validates the name
        if self.engine is not None:
            a, b, tile, prepared = self._recorded(layer)
        else:
            a, b = self._synthesized_operands(layer)
            tile, prepared = None, self._layer_state(layer)
        # None means "FaultCampaign's own default" — never restate a
        # default here, or the hand-wired parity contract drifts.
        return FaultCampaign._on_prepared(
            scheme,
            a,
            b,
            prepared,
            tile=tile,
            options=CampaignOptions(
                detection=(
                    detection if detection is not None else self.detection
                ),
                seed=seed,
                significance_factor=significance_factor,
                batch_size=batch_size,
                sparse=sparse,
                cache=self.cache,
                workers=workers,
            ),
        )

    def propagation_campaign(
        self,
        layer: str | None = None,
        *,
        x: np.ndarray,
        seed: int | None = None,
        recovery: RecoveryPolicy | None = None,
        output_rtol: float | None = None,
        output_atol: float | None = None,
        batch_size: int | None = None,
        verify_recovery: bool = True,
        options: CampaignOptions | None = None,
    ) -> PropagationCampaign:
        """An end-to-end :class:`~repro.faults.PropagationCampaign`.

        Injects into the named layer's GEMM and carries the corrupted
        activations to the model output, classifying every trial as
        masked / detected / benign-alarm / undetected-SDC against the
        ABFT verdict — with optional detection-triggered recovery
        (``recovery`` defaults to the session's policy).  Requires the
        numeric realization (``model=`` at construction): propagation
        is meaningless without real activation flow.  The campaign's
        clean pass reuses the states of the last :meth:`run` over the
        same ``x`` (no clean GEMM), and the struck layer's injections
        and the downstream replays run on that pass's states.

        ``layer`` may be omitted for single-layer plans; ``x`` is the
        model input the campaign propagates over;
        ``options=CampaignOptions(workers=N)`` makes every run of the
        returned campaign shard across ``N`` worker processes by
        default (:mod:`repro.faults.parallel`).  Campaign knobs are
        bundled in ``options=`` (:class:`~repro.faults.
        CampaignOptions`); ``workers`` is options-only (its keyword
        alias was removed after one deprecated release).
        """
        owner = "ProtectedSession.propagation_campaign"
        workers = options.workers if options is not None else None
        seed = resolve_option(options, owner, "seed", seed)
        batch_size = resolve_option(options, owner, "batch_size", batch_size)
        if self.engine is None:
            raise ConfigurationError(
                "propagation campaigns need the numeric realization: "
                "construct the session with model= (a SequentialModel "
                "whose linear-layer names match the plan)"
            )
        if layer is None:
            if len(self.plan) != 1:
                raise ConfigurationError(
                    f"plan for {self.plan.model!r} has "
                    f"{len(self.plan)} layers; pass layer= one of "
                    f"{self.plan.layer_names}"
                )
            layer = self.plan.layer_names[0]
        self.plan.layer(layer)  # validates the name against the plan
        extra = {}
        if output_rtol is not None:
            extra["output_rtol"] = output_rtol
        if output_atol is not None:
            extra["output_atol"] = output_atol
        return PropagationCampaign(
            self.engine,
            layer,
            x,
            recovery=recovery if recovery is not None else self.recovery,
            verify_recovery=verify_recovery,
            options=CampaignOptions(
                seed=seed,
                batch_size=batch_size,
                workers=workers,
                significance_factor=(
                    options.significance_factor if options else None
                ),
                sparse=options.sparse if options else None,
            ),
            **extra,
        )


def deploy(
    model: "str | ModelGraph",
    device: "str | GPUSpec" = "T4",
    *,
    policy: "SchemePolicy | str" = "guided",
    batch: int | None = None,
    h: int = 1080,
    w: int = 1920,
    runnable: SequentialModel | None = None,
    seed: int = 0,
    cache: PreparedCache | None = None,
    detection: DetectionConstants | None = None,
    recovery: RecoveryPolicy | None = None,
) -> ProtectedSession:
    """Model + device + policy → a running protected session.

    The end-to-end workflow of the paper in one call: build (or take)
    the shape-level model, run the policy on the target device, and
    wrap the resulting plan in a :class:`ProtectedSession`.

    Parameters
    ----------
    model:
        A model-zoo name (``repro.list_models()``) or a prebuilt
        :class:`~repro.nn.ModelGraph`.
    device:
        Device name (``repro.list_gpus()``) or spec.
    policy:
        Anything :func:`~repro.api.policy.as_policy` accepts; default
        is the paper's intensity-guided selection.
    batch, h, w:
        Model-zoo build arguments (ignored for a prebuilt graph).
    runnable:
        Optional numeric :class:`~repro.nn.SequentialModel` realization
        whose linear-layer names match the graph's.
    seed, cache, detection, recovery:
        Forwarded to :class:`ProtectedSession`.

    Examples
    --------
    >>> import repro
    >>> session = repro.deploy("mlp_bottom", "T4", batch=32)
    >>> session.plan.layer("fc1").scheme
    'thread_onesided'
    >>> session.plan.guided_overhead_percent <= (
    ...     session.plan.scheme_overhead_percent("global"))
    True
    """
    spec = get_gpu(device) if isinstance(device, str) else device
    graph = (
        build_model(model, batch=batch, h=h, w=w)
        if isinstance(model, str)
        else model
    )
    plan = as_policy(policy).assign(graph, spec)
    return ProtectedSession(
        plan, model=runnable, seed=seed, cache=cache, detection=detection,
        recovery=recovery,
    )
