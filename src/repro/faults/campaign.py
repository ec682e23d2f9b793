"""Fault-injection campaigns measuring detection coverage.

A campaign runs a scheme's protected GEMM many times, each trial
injecting one *fault set* — a single fault in the paper's §2.3 model,
or ``r`` simultaneous faults when exercising the §2.4 multi-checksum
extension — and tallies detections.  Trials whose corruption is
numerically negligible (below the detection tolerance *and* below any
sensible significance threshold) are tracked separately: ABFT's
guarantee is about *significant* faults, and FP bit flips in low
mantissa bits can be smaller than legitimate rounding noise.
Checksum-path faults corrupt the redundant computation, not the
output; per the fault model they can only raise *benign false alarms*
and are never counted as significant corruption.

The campaign rides the prepared-execution engine: the operands are
prepared **once** at construction (padding, tile selection, the clean
GEMM, operand checksums), and trials execute in chunked
:meth:`~repro.abft.base.PreparedExecution.inject_batch` calls — so N
trials run the clean padded GEMM and the operand-side reductions
exactly once instead of N+1 times, and the output-side re-reductions
and verdicts all happen in batch-wide NumPy calls.  Passing a shared
:class:`~repro.abft.base.PreparedCache` amortizes one step further:
parameter sweeps (several campaigns over one problem, varying
significance factors, detection constants, or per-trial fault counts)
reuse a single prepared state, so the whole sweep runs the clean GEMM
exactly once.  Schemes with a sparse re-reduction path (DESIGN.md
§1.3) additionally skip the stacked accumulator entirely: only the
reduction slices each fault struck are recomputed, and trial records
are classified from the fault sites' final values rather than from
materialized accumulators, so the whole record pipeline — delta
gather, significance classification, verdict extraction — is
vectorized end to end and scales with the *faults per trial*, not the
output.  The chunk size (:attr:`FaultCampaign.batch_size`) is
auto-tuned from the scheme's check-array footprint unless overridden.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..config import DetectionConstants

if TYPE_CHECKING:  # avoid the faults <-> abft import cycle at runtime
    from ..abft.base import PreparedCache, PreparedExecution, Scheme
from ..errors import FaultInjectionError
from ..gemm.tiles import TileConfig
from .injector import FaultSites, faulted_site_values, sites_from_flat_specs
from .model import FaultKind, FaultPath, FaultSpec
from .options import CampaignOptions, resolve_option

#: One campaign trial's fault set, or a bare spec (normalized to a
#: 1-tuple) — what ``run``/``run_batch`` accept per trial.
TrialFaults = "FaultSpec | Sequence[FaultSpec]"

#: Kind table for :class:`SpecArrays` wire codes (index == code).  The
#: order matches the draw distribution of :meth:`FaultCampaign.
#: random_fault`, which samples these three original-path kinds.
SPEC_KINDS = (FaultKind.BITFLIP_FP32, FaultKind.BITFLIP_FP16, FaultKind.ADD)


@dataclass(frozen=True)
class SpecArrays:
    """Columnar form of a drawn random-spec batch.

    The raw whole-batch RNG draws behind :meth:`FaultCampaign.
    draw_faults`, before per-spec assembly: one entry per spec, fault
    kinds wire-coded as ``uint8`` indices into :data:`SPEC_KINDS`.  A
    batch in this form ships to sharded campaign workers as five small
    numeric arrays instead of thousands of pickled :class:`FaultSpec`
    objects; :func:`assemble_specs` materializes any slice back into
    specs, bit-identically to the in-process assembly.
    """

    rows: np.ndarray
    cols: np.ndarray
    kind_codes: np.ndarray
    values: np.ndarray
    bits: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def slice(self, lo: int, hi: int) -> "SpecArrays":
        """The ``[lo, hi)`` sub-batch (views, no copies)."""
        return SpecArrays(
            rows=self.rows[lo:hi],
            cols=self.cols[lo:hi],
            kind_codes=self.kind_codes[lo:hi],
            values=self.values[lo:hi],
            bits=self.bits[lo:hi],
        )


def assemble_specs(arrays: SpecArrays) -> list[FaultSpec]:
    """Materialize drawn spec arrays into :class:`FaultSpec` objects.

    The (cheap, per-spec) assembly half of :meth:`FaultCampaign.
    draw_faults`, shared verbatim between the in-process path and shard
    workers so both produce identical specs from identical draws.
    """
    rows, cols = arrays.rows, arrays.cols
    values, bits = arrays.values, arrays.bits
    specs: list[FaultSpec] = []
    for i, code in enumerate(arrays.kind_codes):
        kind = SPEC_KINDS[code]
        if kind is FaultKind.ADD:
            specs.append(
                FaultSpec(row=int(rows[i]), col=int(cols[i]), kind=kind,
                          value=float(values[i]))
            )
        else:
            n_bits = 32 if kind is FaultKind.BITFLIP_FP32 else 16
            specs.append(
                FaultSpec(row=int(rows[i]), col=int(cols[i]), kind=kind,
                          bit=int(bits[i]) % n_bits)
            )
    return specs


def group_spec_trials(
    specs: Sequence[FaultSpec], faults_per_trial: int
) -> list[tuple[FaultSpec, ...]]:
    """Flat drawn specs -> per-trial fault tuples, in draw order.

    Matches ``_normalize_trials(draw_faults(...))`` exactly: trial
    ``i`` takes specs ``[i*r, (i+1)*r)`` for ``r = faults_per_trial``.
    """
    r = faults_per_trial
    if r == 1:
        return [(spec,) for spec in specs]
    return [tuple(specs[i * r:(i + 1) * r]) for i in range(len(specs) // r)]


@dataclass(frozen=True)
class TrialRecord:
    """One campaign trial: the fault set, its magnitude, and the verdict.

    Attributes
    ----------
    faults:
        Every fault injected in this trial, in application order.
    delta:
        The largest-magnitude per-site output corruption (signed; the
        site whose ``|new - clean|`` is greatest, non-finite ranking
        above everything).  NaN when no original-path fault struck the
        output (checksum-path-only trials).
    detected:
        Whether the scheme's checks flagged the trial.
    significant:
        Whether any struck output element moved by more than the
        campaign's significance threshold.  Always False for
        checksum-path-only trials: they corrupt the redundant path,
        not the output.
    benign_alarm:
        The trial raised an alarm attributable to checksum-path
        corruption alone: it was detected, every injected fault hit
        the checksum path (so no output corruption exists the alarm
        could stem from), and accordingly nothing was significant — a
        false positive by construction of the fault model, tracked
        separately from coverage.  Mixed trials never carry the flag:
        with both paths struck, attribution is ambiguous.
    """

    faults: tuple[FaultSpec, ...]
    delta: float
    detected: bool
    significant: bool
    benign_alarm: bool = False

    @property
    def n_faults(self) -> int:
        """Number of faults injected in this trial."""
        return len(self.faults)

    @property
    def spec(self) -> FaultSpec:
        """The injected fault of a single-fault trial (compat accessor)."""
        if len(self.faults) != 1:
            raise FaultInjectionError(
                f"trial injected {len(self.faults)} faults; use .faults"
            )
        return self.faults[0]


@dataclass
class CampaignResult:
    """Aggregated campaign statistics."""

    scheme: str
    trials: list[TrialRecord] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_detected(self) -> int:
        return sum(t.detected for t in self.trials)

    @property
    def n_significant(self) -> int:
        return sum(t.significant for t in self.trials)

    @property
    def n_benign_alarms(self) -> int:
        """Trials whose alarm is attributable to checksum-path faults."""
        return sum(t.benign_alarm for t in self.trials)

    @property
    def coverage(self) -> float:
        """Detection rate over *significant* faults (the ABFT guarantee)."""
        significant = [t for t in self.trials if t.significant]
        if not significant:
            return 1.0
        return sum(t.detected for t in significant) / len(significant)

    @property
    def false_negatives(self) -> list[TrialRecord]:
        """Significant faults that escaped detection."""
        return [t for t in self.trials if t.significant and not t.detected]

    def by_fault_count(self) -> dict[int, "CampaignResult"]:
        """Per-simultaneous-fault-count sub-results, ascending.

        Groups trials by :attr:`TrialRecord.n_faults` so coverage (and
        every other statistic) can be reported *as a function of the
        number of simultaneous faults* — the axis of the paper's §2.4
        multi-fault detection claim.
        """
        grouped: dict[int, CampaignResult] = {}
        for trial in self.trials:
            grouped.setdefault(
                trial.n_faults, CampaignResult(scheme=self.scheme)
            ).trials.append(trial)
        return dict(sorted(grouped.items()))

    def coverage_by_fault_count(self) -> dict[int, float]:
        """Detection coverage keyed by per-trial fault count, ascending."""
        return {k: r.coverage for k, r in self.by_fault_count().items()}


class FaultCampaign:
    """Run repeated fault-injection trials against one scheme.

    Each trial injects one fault set: a single fault by default (the
    paper's §2.3 model), or several simultaneous faults via the
    ``faults_per_trial`` arguments of :meth:`run`/:meth:`run_batch`/
    :meth:`draw_faults` (the §2.4 extension — the sparse engine handles
    arbitrary per-trial fault sets).

    Parameters
    ----------
    scheme:
        The protected-execution scheme under test.
    a, b:
        Operand matrices (logical shapes).
    tile:
        Optional tile configuration override.
    significance_factor:
        A fault is *significant* when its absolute delta exceeds
        ``significance_factor`` times the detection tolerance of the
        coarsest check (the output summation).  Sub-significant flips
        (e.g. LSB mantissa flips) are below the rounding-noise floor by
        construction and no checksum scheme can — or needs to — see them.
    batch_size:
        Trials per chunked ``inject_batch`` call.  ``None`` (default)
        auto-tunes it from the scheme's per-trial memory footprint —
        the check arrays alone on the sparse path, the stacked
        ``(batch, m_full, n_full)`` accumulator plus check arrays on
        the dense one — so every scheme's chunk fills roughly the same
        transient-memory budget while keeping the per-trial Python
        overhead amortized.
    sparse:
        Re-reduction path selector, forwarded to ``inject_batch``:
        ``None`` (default) uses sparse re-reduction whenever the scheme
        supports it, ``False`` forces the dense stacked batch, ``True``
        demands sparse and rejects schemes without it.
    cache:
        Optional shared :class:`~repro.abft.base.PreparedCache`.  When
        given, the campaign fetches its prepared state from the cache
        instead of preparing privately, so a parameter sweep of many
        campaigns over one ``(scheme, a, b, tile)`` runs the clean GEMM
        and operand reductions exactly once (bit-identical results
        either way — the state is fault-invariant).
    workers:
        Default worker-process count for :meth:`run`/:meth:`run_batch`
        (both also take a per-call override).  ``None`` or ``1`` runs
        in-process; ``N > 1`` shards each run's trials across a process
        pool sharing this campaign's prepared state via shared memory
        (:mod:`repro.faults.parallel`), record-for-record identical to
        the in-process result for a fixed seed.
    options:
        A :class:`~repro.faults.CampaignOptions` carrying any of the
        knobs above; ``seed`` / ``significance_factor`` / ``batch_size``
        / ``sparse`` may be given either here or as their keyword, not
        both.  ``detection`` / ``cache`` / ``workers`` are options-only
        (their keyword aliases were removed after one deprecated
        release).
    """

    #: Transient-memory budget the auto-tuned batch size fills.
    BATCH_MEMORY_BUDGET = 32 * 1024 * 1024
    #: Auto-tuned batch size clamp (amortization floor / memory ceiling).
    BATCH_SIZE_BOUNDS = (32, 2048)

    def __init__(
        self,
        scheme: "Scheme",
        a: np.ndarray,
        b: np.ndarray,
        *,
        tile: TileConfig | None = None,
        significance_factor: float | None = None,
        seed: int | None = None,
        batch_size: int | None = None,
        sparse: bool | None = None,
        options: CampaignOptions | None = None,
    ) -> None:
        self._configure(
            scheme, a, b, tile, options,
            significance_factor=significance_factor,
            seed=seed,
            batch_size=batch_size,
            sparse=sparse,
        )

    @classmethod
    def _on_prepared(
        cls,
        scheme: "Scheme",
        a: np.ndarray,
        b: np.ndarray,
        prepared: "PreparedExecution",
        *,
        tile: TileConfig | None = None,
        options: CampaignOptions | None = None,
    ) -> "FaultCampaign":
        """A campaign on a prepared state the caller already holds.

        For callers that ran ``(scheme, a, b, tile)`` moments ago and
        kept the state — a session's recorded or held layer state, a
        traced pass's steps — so the campaign never looks it up again
        by content.  Everything else is the public constructor's:
        option resolution, validation, batch sizing, and the
        clean-baseline check.  ``options.cache`` is not consulted.
        """
        self = cls.__new__(cls)
        self._configure(scheme, a, b, tile, options, prepared=prepared)
        return self

    def _configure(
        self,
        scheme: "Scheme",
        a: np.ndarray,
        b: np.ndarray,
        tile: TileConfig | None,
        options: CampaignOptions | None,
        *,
        significance_factor: float | None = None,
        seed: int | None = None,
        batch_size: int | None = None,
        sparse: bool | None = None,
        prepared: "PreparedExecution | None" = None,
    ) -> None:
        """Resolve options, validate, and set up on a prepared state.

        ``prepared=None`` resolves the state from ``(scheme, a, b,
        tile)`` — through ``options.cache`` when given, privately
        otherwise; a given state must be the one ``(scheme, a, b,
        tile)`` resolves to.
        """
        # detection / cache / workers travel only on the options object.
        detection = options.detection if options is not None else None
        cache = options.cache if options is not None else None
        workers = options.workers if options is not None else None
        significance_factor = resolve_option(
            options, "FaultCampaign", "significance_factor",
            significance_factor,
        )
        seed = resolve_option(options, "FaultCampaign", "seed", seed)
        batch_size = resolve_option(
            options, "FaultCampaign", "batch_size", batch_size
        )
        sparse = resolve_option(options, "FaultCampaign", "sparse", sparse)
        if detection is None:
            # Scheme-matched default: the INT8 pipeline's exact-integer
            # checks need the half-ULP tolerance, not FP32 roundoff.
            detection = scheme.default_detection
        if significance_factor is None:
            significance_factor = 4.0
        if seed is None:
            seed = 0
        if not scheme.protects:
            raise FaultInjectionError(
                f"scheme {scheme.name!r} performs no checks; a campaign "
                f"against it cannot measure coverage"
            )
        if batch_size is not None and batch_size <= 0:
            raise FaultInjectionError(
                f"batch_size must be positive, got {batch_size}"
            )
        if sparse and not scheme.supports_sparse:
            raise FaultInjectionError(
                f"scheme {scheme.name!r} has no sparse re-reduction path; "
                f"pass sparse=False or None"
            )
        if workers is not None and workers < 1:
            raise FaultInjectionError(
                f"workers must be >= 1, got {workers}"
            )
        self.workers = workers
        self.scheme = scheme
        self.a = np.asarray(a, dtype=np.float16)
        self.b = np.asarray(b, dtype=np.float16)
        self.tile = tile
        self.detection = detection
        self.significance_factor = significance_factor
        self.sparse = sparse
        self.rng = np.random.default_rng(seed)
        # Dense-path scratch is reused across runs but never across
        # threads: concurrent runs of one campaign (session fan-out)
        # each fill a private buffer.
        self._tls = threading.local()

        # All fault-invariant work happens exactly once — here, once
        # per sweep inside a shared cache, or already in the caller's
        # hands; trials only inject into copies of the prepared
        # accumulator.
        if prepared is None and cache is not None:
            prepared = cache.get(scheme, self.a, self.b, tile=tile)
        elif prepared is None:
            prepared = scheme.prepare(self.a, self.b, tile=tile)
        self._prepared = prepared
        self._use_sparse = scheme.supports_sparse if sparse is None else sparse
        self.batch_size = (
            batch_size if batch_size is not None else self._auto_batch_size()
        )

        # Baseline (fault-free) run: establishes the tolerance scale and
        # sanity-checks that the clean execution raises no alarm.
        baseline = self._prepared.inject(detection=detection)
        if baseline.detected:
            raise FaultInjectionError(
                f"scheme {scheme.name!r} flags a fault on clean data; "
                f"detection tolerances are miscalibrated for this problem"
            )
        self._baseline = baseline
        self._tolerance_scale = max(
            baseline.verdict.tolerance if baseline.verdict else 0.0,
            detection.atol_floor,
        )

    @property
    def prepared(self) -> "PreparedExecution":
        """The campaign's shared prepared state (fault-invariant half).

        Exposed for consumers that layer more work on the same state —
        :class:`~repro.faults.PropagationCampaign` injects through it
        and replays downstream from its clean accumulator.  Treat as
        read-only; the state is shared across every trial (and, with a
        cache, across campaigns).
        """
        return self._prepared

    @property
    def tolerance_scale(self) -> float:
        """The campaign's numerical sensitivity floor.

        The largest detection tolerance of the scheme's clean baseline
        verdict (floored at the detection constants' absolute floor) —
        the scale the significance threshold multiplies.  Corruptions
        below ``significance_factor * tolerance_scale`` are classified
        insignificant: they are within the rounding noise the tolerance
        model already budgets for.
        """
        return self._tolerance_scale

    # ------------------------------------------------------------------
    @classmethod
    def _from_prepared(
        cls,
        prepared: "PreparedExecution",
        *,
        detection: DetectionConstants,
        significance_factor: float,
        tolerance_scale: float,
        batch_size: int,
        use_sparse: bool,
    ) -> "FaultCampaign":
        """Rehydrate a campaign around an existing prepared state.

        The shard-worker constructor (:mod:`repro.faults.parallel`):
        skips preparation and the clean-baseline injection entirely —
        the parent already did both — and carries the parent's
        *derived* configuration (including the baseline tolerance
        scale) verbatim, so worker-side classification matches the
        in-process path bit for bit.  No RNG is attached: workers never
        draw, the parent owns the random stream.
        """
        self = cls.__new__(cls)
        self.scheme = prepared.scheme
        # Logical operands live inside the prepared state; nothing
        # downstream of construction reads these again.
        self.a = None
        self.b = None
        self.tile = prepared.tile
        self.detection = detection
        self.significance_factor = significance_factor
        self.sparse = use_sparse
        self.workers = None
        self.rng = None
        self._tls = threading.local()
        self._prepared = prepared
        self._use_sparse = use_sparse
        self.batch_size = batch_size
        self._baseline = None
        self._tolerance_scale = tolerance_scale
        return self

    def _resolve_workers(self, workers: int | None, n_trials: int) -> int:
        """Effective worker count for a run of ``n_trials`` trials.

        A per-call ``workers`` overrides the campaign default; ``None``
        everywhere means in-process.  The count is clamped to the trial
        count — shards are contiguous non-empty trial ranges, so extra
        workers would have nothing to do.
        """
        if workers is None:
            workers = self.workers
        if workers is None:
            return 1
        if workers < 1:
            raise FaultInjectionError(f"workers must be >= 1, got {workers}")
        return max(1, min(int(workers), n_trials))

    # ------------------------------------------------------------------
    def _auto_batch_size(self) -> int:
        """Chunk size filling :attr:`BATCH_MEMORY_BUDGET` per batch.

        The per-trial transient footprint depends on the execution
        path: sparse re-reduction materializes only per-trial copies of
        the scheme's check arrays (plus comparison intermediates of the
        same shape), while the dense batch adds the stacked
        ``(batch, m_full, n_full)`` float32 accumulator.  Schemes with
        small check arrays (scalar global checks, per-tile sums) thus
        get much larger chunks than schemes whose checks are
        output-sized (elementwise replication), instead of everyone
        sharing one fixed guess.
        """
        executor = self._prepared.executor
        outputs = executor.m_full * executor.n_full
        if self.scheme.supports_sparse:
            reductions = self._prepared.clean_reductions
            if not isinstance(reductions, tuple):
                reductions = (reductions,)
            check_bytes = sum(np.asarray(r).nbytes for r in reductions)
        else:
            # No slice-decomposable reduction: the check compares
            # output-sized arrays elementwise (replication).
            check_bytes = 8 * outputs
        if self._use_sparse:
            # Broadcast check-array copy + residual/tolerance/verdict
            # intermediates, all check-shaped; no stacked accumulator.
            per_trial = 6 * check_bytes + 256
        else:
            per_trial = 4 * outputs + 4 * check_bytes
        low, high = self.BATCH_SIZE_BOUNDS
        return max(low, min(high, self.BATCH_MEMORY_BUDGET // per_trial))

    @property
    def fault_domain(self) -> tuple[int, int]:
        """Padded accumulator shape every random fault site is drawn from.

        The single source of truth for both :meth:`random_fault` and
        :meth:`draw_faults` — the prepared clean accumulator, whose grid
        is what injection indexes into.
        """
        rows, cols = self._prepared.c_clean.shape
        return int(rows), int(cols)

    def random_fault(self) -> FaultSpec:
        """Draw one original-path fault at a random output element."""
        rows, cols = self.fault_domain
        row = int(self.rng.integers(rows))
        col = int(self.rng.integers(cols))
        kind = self.rng.choice(
            [FaultKind.BITFLIP_FP32, FaultKind.BITFLIP_FP16, FaultKind.ADD]
        )
        if kind is FaultKind.ADD:
            # A corrupted MMA partial product: magnitude comparable to a
            # legitimate partial sum, random sign.
            scale = float(np.abs(self._prepared.c_clean).mean() + 1.0)
            value = float(self.rng.normal(0.0, scale))
            return FaultSpec(row=row, col=col, kind=kind, value=value)
        bits = 32 if kind is FaultKind.BITFLIP_FP32 else 16
        bit = int(self.rng.integers(bits))
        return FaultSpec(row=row, col=col, kind=kind, bit=bit)

    def draw_faults(
        self, n: int, *, faults_per_trial: int = 1
    ) -> list[FaultSpec] | list[tuple[FaultSpec, ...]]:
        """Vectorized batch of ``n`` random original-path fault trials.

        All random draws happen up front in whole-batch RNG calls; only
        the cheap per-spec assembly is a Python loop.  The stream
        differs from successive :meth:`random_fault` calls but is
        equally deterministic for a given campaign seed.

        With the default ``faults_per_trial=1`` the return value is a
        flat spec list (one fault per trial — the historical API).
        With ``faults_per_trial=r > 1`` it is a list of ``r``-tuples,
        each a trial's simultaneous fault set; sites are drawn i.i.d.
        over the fault domain, so a trial occasionally strikes the same
        element twice (then holding fewer than ``r`` distinct faulty
        values, still within the §2.4 ``<= r`` guarantee).
        """
        if n < 0:
            raise FaultInjectionError(f"cannot draw {n} faults")
        if faults_per_trial < 1:
            raise FaultInjectionError(
                f"faults_per_trial must be >= 1, got {faults_per_trial}"
            )
        specs = self._draw_spec_batch(n * faults_per_trial)
        if faults_per_trial == 1:
            return specs
        return [
            tuple(specs[i * faults_per_trial:(i + 1) * faults_per_trial])
            for i in range(n)
        ]

    def _draw_spec_arrays(self, total: int) -> SpecArrays:
        """``total`` random original-path draws as columnar arrays.

        All randomness for a batch happens here, in whole-batch RNG
        calls on the campaign's single seeded stream — the assembly
        into :class:`FaultSpec` objects (:func:`assemble_specs`) is
        pure, so the draw can be split from the assembly: sharded runs
        draw once in the parent and assemble per worker, consuming the
        RNG stream identically to an in-process run.
        """
        rows_total, cols_total = self.fault_domain
        rows = self.rng.integers(rows_total, size=total)
        cols = self.rng.integers(cols_total, size=total)
        kinds = self.rng.choice(np.array(SPEC_KINDS, dtype=object), size=total)
        scale = float(np.abs(self._prepared.c_clean).mean() + 1.0)
        values = self.rng.normal(0.0, scale, size=total)
        bits = self.rng.integers(32, size=total)
        codes = np.empty(total, dtype=np.uint8)
        for code, kind in enumerate(SPEC_KINDS):
            codes[kinds == kind] = code
        return SpecArrays(
            rows=rows, cols=cols, kind_codes=codes, values=values, bits=bits
        )

    def _draw_spec_batch(self, total: int) -> list[FaultSpec]:
        """``total`` random original-path specs from whole-batch RNG calls."""
        return assemble_specs(self._draw_spec_arrays(total))

    @staticmethod
    def _normalize_trials(
        specs: Iterable["TrialFaults"],
    ) -> list[tuple[FaultSpec, ...]]:
        """Per-trial fault tuples from bare specs and/or spec sequences."""
        trials: list[tuple[FaultSpec, ...]] = []
        for entry in specs:
            if isinstance(entry, FaultSpec):
                trials.append((entry,))
            else:
                trials.append(tuple(entry))
        return trials

    def run_trial(self, faults: "TrialFaults") -> TrialRecord:
        """Execute one trial with the given fault (or fault set) injected."""
        (trial,) = self._normalize_trials([faults])
        outcome = self._prepared.inject(trial, detection=self.detection)
        return self._record(trial, outcome)

    def _record(
        self, faults: tuple[FaultSpec, ...], outcome
    ) -> TrialRecord:
        """Classify one trial outcome against the clean accumulator.

        Delegates to :meth:`_records_batch` with a batch of one, so the
        two paths are record-for-record identical by construction.
        """
        return self._records_batch((faults,), (outcome,))[0]

    def _records_batch(
        self,
        trials: Sequence[tuple[FaultSpec, ...]],
        outcomes: Sequence,
        sites=None,
    ) -> list[TrialRecord]:
        """Vectorized record assembly for one trial chunk.

        Deltas come from the fault sites' final values
        (:func:`~repro.faults.injector.faulted_site_values` — the same
        corruption core injection uses), not from reading materialized
        accumulators, so the gather is a handful of fancy-indexed NumPy
        calls on either execution path and sparse outcomes never
        materialize their grids.  A trial is *significant* when any of
        its struck sites moved past the significance threshold (or into
        non-finite territory); its reported ``delta`` is the
        largest-magnitude site delta (first site wins ties).  Trials
        with no original-path site — checksum-path-only fault sets —
        are never significant: they corrupt the redundant computation,
        so a detection there is a *benign alarm*, not coverage of a
        significant fault.
        """
        return self._records_from_columns(
            trials, *self._classify_batch(trials, outcomes, sites)
        )

    def _classify_batch(
        self,
        trials: Sequence[tuple[FaultSpec, ...]],
        outcomes: Sequence,
        sites=None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Verdict columns ``(deltas, detected, significant, benign)``.

        The vectorized half of record assembly — everything except the
        :class:`TrialRecord` object construction, which shard workers
        leave to the parent: four compact arrays cross a process
        boundary far cheaper than pickled record objects.
        """
        n = len(trials)
        clean = self._prepared.c_clean
        if sites is None:
            sites = faulted_site_values(clean, trials)
        deltas = np.full(n, np.nan)
        significant = np.zeros(n, dtype=bool)
        if len(sites):
            site_deltas = sites.deltas(clean)
            keys = np.where(
                np.isfinite(site_deltas), np.abs(site_deltas), np.inf
            )
            # Representative site per trial: descending |delta| within
            # each trial (stable lexsort keeps the first site on ties),
            # then the head of every trial's span.
            order = np.lexsort((-keys, sites.trials))
            sorted_trials = sites.trials[order]
            first = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_trials)) + 1)
            )
            rep = order[first]
            touched = sorted_trials[first]
            deltas[touched] = site_deltas[rep]
            threshold = self.significance_factor * self._tolerance_scale
            significant[touched] = keys[rep] > threshold
        detected = np.fromiter(
            (bool(o.detected) for o in outcomes), dtype=bool, count=n
        )
        # Attribution must be unambiguous: only trials whose every
        # fault hit the checksum path can blame the alarm on it (such
        # trials have no output corruption, hence are never significant
        # either).
        benign = np.fromiter(
            (
                bool(detected[i])
                and bool(trials[i])
                and all(f.path is FaultPath.CHECKSUM for f in trials[i])
                for i in range(n)
            ),
            dtype=bool,
            count=n,
        )
        return deltas, detected, significant, benign

    @staticmethod
    def _records_from_columns(
        trials: Sequence[tuple[FaultSpec, ...]],
        deltas: np.ndarray,
        detected: np.ndarray,
        significant: np.ndarray,
        benign: np.ndarray,
    ) -> list[TrialRecord]:
        """Render verdict columns into :class:`TrialRecord` objects."""
        return [
            TrialRecord(
                faults=tuple(trials[i]),
                delta=float(deltas[i]),
                detected=bool(detected[i]),
                significant=bool(significant[i]),
                benign_alarm=bool(benign[i]),
            )
            for i in range(len(trials))
        ]

    def _run_specs(
        self,
        trials: Sequence[tuple[FaultSpec, ...]],
        sites_fn=None,
    ) -> list[TrialRecord]:
        """Execute all trials through chunked ``inject_batch`` calls.

        On the dense path one scratch buffer of ``batch_size`` stacked
        accumulators is allocated lazily and reused across chunks (and
        campaign runs): records are extracted from each chunk's
        outcomes before the next chunk overwrites the buffer.  The
        sparse path materializes no accumulators, so it needs no
        scratch at all.  ``sites_fn`` — ``(start, chunk) -> FaultSites``
        — supplies each chunk's site valuation when the caller already
        fused it with drawing (:meth:`run_batch`); otherwise the sparse
        path derives it per chunk from the specs.
        """
        return self._records_from_columns(
            trials, *self._run_specs_columns(trials, sites_fn)
        )

    def _run_specs_columns(
        self,
        trials: Sequence[tuple[FaultSpec, ...]],
        sites_fn=None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The chunked execution loop, returning verdict columns.

        Same contract as :meth:`_run_specs` minus the final record
        rendering: the per-chunk ``(deltas, detected, significant,
        benign)`` columns are concatenated across chunks.  Shard
        workers call this directly and ship the columns home.
        """
        columns: list[tuple[np.ndarray, ...]] = []
        scratch = None
        if not self._use_sparse:
            size = min(self.batch_size, len(trials))
            scratch = getattr(self._tls, "scratch", None)
            if size and (scratch is None or len(scratch) < size):
                scratch = np.empty(
                    (size, *self._prepared.c_clean.shape),
                    dtype=self._prepared.c_clean.dtype,
                )
                self._tls.scratch = scratch
        for start in range(0, len(trials), self.batch_size):
            chunk = list(trials[start:start + self.batch_size])
            sites = None
            if sites_fn is not None:
                sites = sites_fn(start, chunk)
            elif self._use_sparse:
                # One fault→site valuation serves both the sparse
                # injection and the record classification.
                sites = faulted_site_values(self._prepared.c_clean, chunk)
            outcomes = self._prepared.inject_batch(
                chunk,
                detection=self.detection,
                out=scratch[: len(chunk)] if scratch is not None else None,
                sparse=self._use_sparse,
                sites=sites,
            )
            columns.append(self._classify_batch(chunk, outcomes, sites))
        if not columns:
            return (
                np.empty(0),
                np.empty(0, dtype=bool),
                np.empty(0, dtype=bool),
                np.empty(0, dtype=bool),
            )
        if len(columns) == 1:
            return columns[0]
        return tuple(
            np.concatenate([chunk[k] for chunk in columns]) for k in range(4)
        )

    def run(
        self,
        n_trials: int,
        specs: Sequence["TrialFaults"] | None = None,
        *,
        faults_per_trial: int | None = None,
        workers: int | None = None,
    ) -> CampaignResult:
        """Run ``n_trials`` random trials, or the provided fault sets.

        Contract: when ``specs`` is given it fully determines the
        trials — each entry a bare :class:`FaultSpec` (a single-fault
        trial) or a sequence of specs (one trial's simultaneous fault
        set) — and ``n_trials`` must agree: either ``0`` ("however
        many specs there are") or exactly ``len(specs)``;
        ``faults_per_trial`` must then be left unset.  Without
        ``specs``, each trial draws ``faults_per_trial`` (default 1)
        random original-path faults.  Any other combination raises
        :class:`FaultInjectionError` rather than silently ignoring an
        argument.

        All trials execute through the batched injection engine
        (bit-identical to per-trial :meth:`run_trial` calls).
        ``workers`` overrides the campaign's default worker count for
        this run (see the constructor); any sharded execution returns
        the exact record sequence the in-process path produces.

        Example
        -------
        >>> import numpy as np
        >>> from repro.abft import GlobalABFT
        >>> from repro.faults import FaultCampaign
        >>> rng = np.random.default_rng(0)
        >>> a = rng.standard_normal((48, 32)).astype(np.float16)
        >>> b = rng.standard_normal((32, 40)).astype(np.float16)
        >>> campaign = FaultCampaign(GlobalABFT(), a, b, seed=7)
        >>> result = campaign.run(64)
        >>> result.n_trials
        64
        >>> 0.0 <= result.coverage <= 1.0
        True
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
                    f"n_trials={n_trials} disagrees with {len(specs)} explicit "
                    f"specs; pass 0 or len(specs)"
                )
            trials = self._normalize_trials(specs)
        else:
            per_trial = 1 if faults_per_trial is None else faults_per_trial
            if per_trial < 1:
                raise FaultInjectionError(
                    f"faults_per_trial must be >= 1, got {per_trial}"
                )
            trials = [
                tuple(self.random_fault() for _ in range(per_trial))
                for _ in range(n_trials)
            ]
        result = CampaignResult(scheme=self.scheme.name)
        n_workers = self._resolve_workers(workers, len(trials))
        if n_workers > 1:
            from .parallel import run_campaign_sharded

            result.trials.extend(
                run_campaign_sharded(self, trials=trials, workers=n_workers)
            )
        else:
            result.trials.extend(self._run_specs(trials))
        return result

    def _fused_sites_fn(self, trials: Sequence[tuple[FaultSpec, ...]]):
        """Per-chunk :class:`FaultSites` builder fused with a drawn batch.

        Extracts the batch's flat trial-major coordinate arrays once,
        so each chunk's site valuation is a slice + one vectorized
        corruption call (:func:`sites_from_flat_specs`) instead of the
        generic per-spec first-occurrence walk.  Returns ``None`` —
        caller falls back to :func:`faulted_site_values` — when any
        trial strikes one site twice (possible for multi-fault trials
        over tiny fault domains), where single-step application would
        diverge from spec-order semantics.
        """
        counts = np.fromiter(
            (len(t) for t in trials), dtype=np.intp, count=len(trials)
        )
        flat = [spec for trial in trials for spec in trial]
        total = len(flat)
        trial_ids = np.repeat(np.arange(len(trials), dtype=np.intp), counts)
        rows = np.fromiter((s.row for s in flat), dtype=np.intp, count=total)
        cols = np.fromiter((s.col for s in flat), dtype=np.intp, count=total)
        rows_total, cols_total = self.fault_domain
        keys = (trial_ids * rows_total + rows) * cols_total + cols
        if len(np.unique(keys)) != total:
            return None
        offsets = np.concatenate(([0], np.cumsum(counts)))

        def build(start: int, chunk) -> "FaultSites":
            lo = int(offsets[start])
            hi = int(offsets[start + len(chunk)])
            return sites_from_flat_specs(
                self._prepared.c_clean,
                trial_ids[lo:hi] - start,
                rows[lo:hi],
                cols[lo:hi],
                flat[lo:hi],
                len(chunk),
            )

        return build

    def run_batch(
        self,
        n_trials: int,
        *,
        faults_per_trial: int = 1,
        workers: int | None = None,
    ) -> CampaignResult:
        """Run ``n_trials`` random trials with all specs drawn up front.

        Equivalent coverage semantics to :meth:`run` (each trial is one
        fault-set injection against the shared prepared state), but the
        randomness is drawn in vectorized batch RNG calls before any
        trial executes, and the fault→site valuation feeding the sparse
        engine and record classification is fused with the draw
        (:meth:`_fused_sites_fn`) — the fastest path through a
        campaign, record-for-record identical to
        ``run(n_trials, specs=draw_faults(...))``.
        ``faults_per_trial`` sets every trial's simultaneous fault
        count (see :meth:`draw_faults`).

        With ``workers=N > 1`` (or a campaign-level default) the drawn
        trial stream is sharded across a process pool sharing this
        campaign's prepared state through shared memory; the parent
        draws all randomness up front exactly as in-process, so for a
        fixed seed the merged result is record-for-record identical at
        any worker count.  A worker failure raises
        :class:`~repro.errors.CampaignError`.

        Example
        -------
        >>> import numpy as np
        >>> from repro.abft import GlobalABFT
        >>> from repro.faults import FaultCampaign
        >>> rng = np.random.default_rng(0)
        >>> a = rng.standard_normal((48, 32)).astype(np.float16)
        >>> b = rng.standard_normal((32, 40)).astype(np.float16)
        >>> campaign = FaultCampaign(GlobalABFT(), a, b, seed=7)
        >>> result = campaign.run_batch(128, faults_per_trial=2)
        >>> result.n_trials, result.trials[0].n_faults
        (128, 2)
        >>> sorted(result.coverage_by_fault_count()) == [2]
        True
        """
        n_workers = self._resolve_workers(workers, n_trials)
        if n_workers > 1:
            if faults_per_trial < 1:
                raise FaultInjectionError(
                    f"faults_per_trial must be >= 1, got {faults_per_trial}"
                )
            from .parallel import run_campaign_sharded

            arrays = self._draw_spec_arrays(n_trials * faults_per_trial)
            result = CampaignResult(scheme=self.scheme.name)
            result.trials.extend(
                run_campaign_sharded(
                    self,
                    arrays=arrays,
                    n_trials=n_trials,
                    faults_per_trial=faults_per_trial,
                    workers=n_workers,
                )
            )
            return result
        drawn = self.draw_faults(n_trials, faults_per_trial=faults_per_trial)
        trials = self._normalize_trials(drawn)
        result = CampaignResult(scheme=self.scheme.name)
        result.trials.extend(
            self._run_specs(trials, sites_fn=self._fused_sites_fn(trials))
        )
        return result
