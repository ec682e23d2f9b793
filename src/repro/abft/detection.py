"""Tolerance-aware checksum comparison.

ABFT in floating point cannot demand bitwise equality: the checksum dot
product and the output summation accumulate the same terms in different
orders.  Comparisons therefore use the summation forward-error bound
from :class:`repro.config.DetectionConstants`: a mismatch is a fault
only if it exceeds the rounding noise that the reduction length and the
accumulated magnitude can explain.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ..config import DEFAULT_DETECTION, DetectionConstants
from ..errors import DetectionError


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of evaluating one family of ABFT checks.

    Attributes
    ----------
    detected:
        True if any individual check exceeded its tolerance.
    violations:
        Indices (into the flattened check array) of failed checks —
        thread-level schemes use these to localize the faulty region.
    max_residual:
        Largest ``|lhs - rhs|`` observed.
    tolerance:
        The largest tolerance applied (diagnostic).
    checks:
        Number of individual equality checks evaluated.
    """

    detected: bool
    violations: tuple[int, ...]
    max_residual: float
    tolerance: float
    checks: int


def compare_checksums(
    checksum_side: np.ndarray,
    output_side: np.ndarray,
    *,
    n_terms: int,
    magnitudes: np.ndarray | float,
    constants: DetectionConstants = DEFAULT_DETECTION,
) -> CheckVerdict:
    """Compare the redundant-path values against the output-path values.

    Parameters
    ----------
    checksum_side:
        Values produced by the redundant (checksum) computation.
    output_side:
        Values produced by summing the actual output.
    n_terms:
        Length of the longest accumulation feeding either side; scales
        the rounding-noise tolerance.
    magnitudes:
        Per-check accumulated-magnitude proxy (same shape as the check
        arrays, or a scalar bound).

    Notes
    -----
    Non-finite residuals (a fault flipped an exponent bit into inf/NaN)
    always count as detections.
    """
    lhs = np.asarray(checksum_side, dtype=np.float64)
    rhs = np.asarray(output_side, dtype=np.float64)
    if lhs.shape != rhs.shape:
        raise DetectionError(
            f"checksum comparison shape mismatch: {lhs.shape} vs {rhs.shape}"
        )
    mags = np.broadcast_to(np.asarray(magnitudes, dtype=np.float64), lhs.shape)

    # inf - inf (both sides blown up by faults) is a legitimate NaN
    # residual — non-finite always counts as detected below.
    with np.errstate(invalid="ignore"):
        residual = np.abs(lhs - rhs)
    n = max(int(n_terms), 2)
    gamma = (np.log2(n) + 1.0) * constants.fp32_unit_roundoff
    tol = np.maximum(constants.atol_floor, constants.rtol_slack * gamma * np.abs(mags))

    bad = ~np.isfinite(residual) | (residual > tol)
    violations = tuple(int(i) for i in np.flatnonzero(bad.ravel()))
    finite = residual[np.isfinite(residual)]
    max_residual = float(finite.max()) if finite.size else float("inf")
    if not np.all(np.isfinite(residual)):
        max_residual = float("inf")
    return CheckVerdict(
        detected=bool(bad.any()),
        violations=violations,
        max_residual=max_residual,
        tolerance=float(tol.max()) if tol.size else 0.0,
        checks=int(lhs.size),
    )


def compare_checksums_batch(
    checksum_side: np.ndarray,
    output_side: np.ndarray,
    *,
    n_terms: int,
    magnitudes: np.ndarray | float,
    constants: DetectionConstants = DEFAULT_DETECTION,
) -> list[CheckVerdict]:
    """Render one :class:`CheckVerdict` per trial of a stacked comparison.

    Axis 0 indexes independent trials; the remaining axes are per-trial
    check arrays.  Either side may carry a leading axis of 1 when its
    values are fault-invariant (it broadcasts across trials without
    copying), and ``magnitudes`` broadcasts against the per-trial check
    shape.

    Every operation is elementwise, so trial ``i`` of the result is
    independent of the batch size — the batched schemes rely on this to
    make ``inject_batch`` bit-identical to sequential ``inject`` calls
    (which route through this same function with ``N == 1``).  Note the
    working dtype follows the inputs (see below), so results can differ
    in the last bit from :func:`compare_checksums`, which always
    compares in float64; that scalar function remains the standalone
    reference API, not the engine's code path.
    """
    lhs = np.asarray(checksum_side)
    rhs = np.asarray(output_side)
    if lhs.ndim < 2 or rhs.ndim < 2 or lhs.shape[1:] != rhs.shape[1:]:
        raise DetectionError(
            f"batched checksum comparison shape mismatch: {lhs.shape} vs {rhs.shape}"
        )
    n = max(lhs.shape[0], rhs.shape[0])
    if lhs.shape[0] not in (1, n) or rhs.shape[0] not in (1, n):
        raise DetectionError(
            f"batched checksum comparison trial-axis mismatch: "
            f"{lhs.shape[0]} vs {rhs.shape[0]}"
        )
    tail = lhs.shape[1:]

    # One difference array is the only batch-sized temporary; inputs
    # cast on the fly inside the ufunc.  The working dtype follows the
    # inputs (thread-level reducers hand over FP32, matching their FP32
    # hardware accumulation; scalar checks arrive as float64), so the
    # memory-bound comparison never pays for precision the tolerance
    # model does not assume.
    dtype = np.result_type(lhs, rhs, np.float32)
    # inf - inf (both sides blown up by faults) is a legitimate NaN
    # residual — non-finite always counts as detected below.
    with np.errstate(invalid="ignore"):
        residual = np.subtract(lhs, rhs, dtype=dtype)
    np.abs(residual, out=residual)
    residual = np.broadcast_to(residual, (n, *tail)).reshape(n, -1)

    terms = max(int(n_terms), 2)
    gamma = (np.log2(terms) + 1.0) * constants.fp32_unit_roundoff
    mags = np.asarray(magnitudes, dtype=np.float64)
    tol = np.maximum(constants.atol_floor, constants.rtol_slack * gamma * np.abs(mags))
    if tol.ndim > len(tail):  # per-trial magnitudes (e.g. replication)
        tol_flat = np.broadcast_to(tol, (n, *tail)).reshape(n, -1)
        tolerance = (
            tol_flat.max(axis=1) if tol_flat.shape[1] else np.zeros(n)
        )
    else:  # fault-invariant magnitudes: one tolerance serves every trial
        tol_flat = np.broadcast_to(tol, tail).reshape(1, -1)
        tolerance = np.full(n, float(tol.max()) if tol.size else 0.0)

    checks = residual.shape[1]
    bad = residual > tol_flat
    bad |= ~np.isfinite(residual)
    detected = bad.any(axis=1)
    if checks:
        # max propagates both NaN and inf, so one reduction yields the
        # "inf when any residual is non-finite, max otherwise" contract.
        raw_max = residual.max(axis=1)
        max_residual = np.where(np.isfinite(raw_max), raw_max, np.inf)
    else:
        max_residual = np.full(n, np.inf)

    # One batch-wide nonzero replaces a per-trial scan: undetected
    # trials contribute no entries, and searchsorted locates each
    # detected trial's span in the sorted trial indices.
    violations_per_trial: list[tuple[int, ...]] = [()] * n
    detected_trials = np.flatnonzero(detected)
    if detected_trials.size:
        trial_idx, check_idx = np.nonzero(bad)
        starts = np.searchsorted(trial_idx, detected_trials, side="left")
        ends = np.searchsorted(trial_idx, detected_trials, side="right")
        for t, lo, hi in zip(detected_trials, starts, ends):
            violations_per_trial[int(t)] = tuple(
                int(j) for j in check_idx[lo:hi]
            )

    verdicts: list[CheckVerdict] = []
    for i in range(n):
        verdicts.append(
            CheckVerdict(
                detected=bool(detected[i]),
                violations=violations_per_trial[i],
                max_residual=float(max_residual[i]),
                tolerance=float(tolerance[i]),
                checks=checks,
            )
        )
    return verdicts


# ----------------------------------------------------------------------
# Sparse (slice-wise) comparison
# ----------------------------------------------------------------------
#: Serializes the one-time build of every ``CleanComparison.order``.
_ORDER_LOCK = threading.Lock()


@dataclass(frozen=True)
class CleanComparison:
    """Fault-invariant half of a checksum comparison, prepared once.

    Holds the clean check arrays' full comparison — per-check residuals,
    violation mask, tolerances — plus a descending residual ordering
    (built on first use), so :func:`compare_checksums_sparse` can
    render a trial's verdict from *only its struck checks*: untouched
    checks keep their clean residuals, and the trial's ``max_residual``
    is found by walking the order past the handful of struck indices
    instead of re-reducing the whole check array.  Valid only while the
    checksum side stays clean: a trial whose checksum-path faults
    corrupt a reference passes that check as struck, with the
    corrupted value as its ``lhs``, so the untouched remainder still
    holds.

    Attributes
    ----------
    checksum_side:
        Flat clean checksum-side values (the comparison's lhs).
    output_side:
        Flat clean output-side check values (the comparison's rhs) —
        what a struck check's rhs falls back to when only its
        reference was corrupted, and what a dense trial's re-reduced
        check array is diffed against.
    residual:
        Flat clean ``|lhs - rhs|`` in the comparison working dtype.
    key:
        ``residual`` with non-finite entries mapped to ``+inf`` — the
        max-reduction key (``max`` must report inf whenever any
        residual is non-finite).
    order:
        Check indices sorted by descending ``key`` (ties stable).  Only
        the walk over struck trials reads it, so it is argsorted lazily,
        exactly once even under racing readers; fault-free passes never
        pay for it.
    tol_flat:
        Per-check tolerances (fault-invariant magnitudes only).
    bad:
        Clean violation mask; ``violations``/``n_violations`` cache its
        nonzero indices and count.
    max_residual, tolerance, checks:
        The clean verdict's scalar fields.
    dtype:
        Working dtype of the dense comparison these checks would use.
    """

    checksum_side: np.ndarray
    output_side: np.ndarray
    residual: np.ndarray
    key: np.ndarray
    tol_flat: np.ndarray
    bad: np.ndarray
    violations: tuple[int, ...]
    n_violations: int
    max_residual: float
    tolerance: float
    checks: int
    dtype: np.dtype
    _order: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def order(self) -> np.ndarray:
        if self._order is None:
            with _ORDER_LOCK:
                if self._order is None:
                    object.__setattr__(
                        self, "_order", np.argsort(-self.key, kind="stable")
                    )
        return self._order

    def clean_verdict(self) -> CheckVerdict:
        """The verdict of a trial whose checks are all untouched."""
        return CheckVerdict(
            detected=self.n_violations > 0,
            violations=self.violations if self.n_violations else (),
            max_residual=self.max_residual,
            tolerance=self.tolerance,
            checks=self.checks,
        )


def prepare_clean_comparison(
    checksum_side: np.ndarray,
    output_side: np.ndarray,
    *,
    n_terms: int,
    magnitudes: np.ndarray | float,
    constants: DetectionConstants = DEFAULT_DETECTION,
) -> CleanComparison:
    """Build the fault-invariant comparison state for one clean check set.

    Runs the same elementwise operations as
    :func:`compare_checksums_batch` on the (flattened) clean arrays and
    keeps every intermediate the sparse path needs.  ``magnitudes``
    must be fault-invariant (it is for every sparse-capable scheme);
    per-trial magnitudes would make the tolerance trial-dependent and
    have no clean half to prepare.
    """
    lhs = np.asarray(checksum_side).reshape(-1)
    rhs = np.asarray(output_side).reshape(-1)
    if lhs.shape != rhs.shape:
        raise DetectionError(
            f"checksum comparison shape mismatch: {lhs.shape} vs {rhs.shape}"
        )
    dtype = np.result_type(lhs, rhs, np.float32)
    with np.errstate(invalid="ignore"):
        residual = np.subtract(lhs, rhs, dtype=dtype)
    np.abs(residual, out=residual)

    terms = max(int(n_terms), 2)
    gamma = (np.log2(terms) + 1.0) * constants.fp32_unit_roundoff
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.ndim > np.asarray(checksum_side).ndim:
        raise DetectionError(
            "prepare_clean_comparison needs fault-invariant magnitudes"
        )
    tol = np.maximum(constants.atol_floor, constants.rtol_slack * gamma * np.abs(mags))
    tol_flat = np.ascontiguousarray(
        np.broadcast_to(tol, np.asarray(output_side).shape).reshape(-1),
        dtype=np.float64,
    )

    finite = np.isfinite(residual)
    bad = residual > tol_flat
    bad |= ~finite
    key = np.where(finite, residual.astype(np.float64), np.inf)
    violations = tuple(int(i) for i in np.flatnonzero(bad))
    checks = int(residual.size)
    if checks:
        raw_max = float(residual.max())
        max_residual = raw_max if np.isfinite(raw_max) else float("inf")
    else:
        max_residual = float("inf")
    return CleanComparison(
        checksum_side=lhs,
        output_side=rhs,
        residual=residual,
        key=key,
        tol_flat=tol_flat,
        bad=bad,
        violations=violations,
        n_violations=len(violations),
        max_residual=max_residual,
        tolerance=float(tol.max()) if tol.size else 0.0,
        checks=checks,
        dtype=dtype,
    )


def compare_checksums_sparse(
    clean: CleanComparison,
    trials: np.ndarray,
    checks: np.ndarray,
    values: np.ndarray,
    *,
    n_trials: int,
    lhs: np.ndarray | None = None,
) -> list[CheckVerdict]:
    """Verdicts from struck checks alone, against a clean comparison.

    ``(trials, checks, values)`` hold one entry per unique struck
    (trial, check) pair in trial-major order, checks ascending within
    a trial — ``values`` is each struck check's output-side value.
    ``lhs`` holds the matching checksum-side values and defaults to
    the clean ones (``clean.checksum_side[checks]``); trials whose
    checksum-path faults corrupted a reference pass the corrupted
    value here.  Each listed trial's verdict combines its struck
    checks' fresh residuals with the clean comparison's untouched
    remainder (set arithmetic for ``detected``/``violations``, an
    order walk for ``max_residual``); unlisted trials get the clean
    verdict outright.  Bit-identical, field for field, to
    :func:`compare_checksums_batch` on the materialized check arrays —
    pinned by the sparse-equivalence and verdict-oracle hypothesis
    suites.
    """
    if lhs is None:
        lhs = clean.checksum_side[checks]
    with np.errstate(invalid="ignore"):
        residual = np.abs(np.subtract(lhs, values, dtype=clean.dtype))
    finite = np.isfinite(residual)
    new_bad = residual > clean.tol_flat[checks]
    new_bad |= ~finite
    new_key = np.where(finite, residual.astype(np.float64), np.inf)

    verdicts = [clean.clean_verdict()] * n_trials
    if not len(trials):
        return verdicts
    spans = np.flatnonzero(np.diff(trials)) + 1
    starts = np.concatenate(([0], spans)).tolist()
    ends = np.concatenate((spans, [len(trials)])).tolist()
    # The walk for max_residual stops at the first clean-order check
    # outside the trial's struck set, which lies within the first
    # len(struck) + 1 entries — so only that head of the order is read.
    head = clean.order[: max(hi - lo for lo, hi in zip(starts, ends)) + 1]
    head_walk = list(zip(head.tolist(), clean.key[head].tolist()))
    checks_list = checks.tolist()
    bad_list = new_bad.tolist()
    key_list = new_key.tolist()
    for t, lo, hi in zip(trials[starts].tolist(), starts, ends):
        struck = checks_list[lo:hi]
        struck_set = set(struck)

        # Violations: clean ones outside the struck set, plus struck
        # checks that now violate — ascending, like the dense nonzero.
        fresh = [c for c, bad in zip(struck, bad_list[lo:hi]) if bad]
        if clean.n_violations:
            kept = [v for v in clean.violations if v not in struck_set]
            fresh = sorted(kept + fresh)
        violations = tuple(fresh)

        # Max residual: the fresh struck keys vs the clean order walked
        # past the struck indices (expected O(1) steps — a struck check
        # is rarely the clean argmax).
        best = max(key_list[lo:hi])
        for idx, key in head_walk:
            if idx not in struck_set:
                best = max(best, key)
                break

        verdicts[t] = CheckVerdict(
            detected=bool(violations),
            violations=violations,
            max_residual=best if math.isfinite(best) else float("inf"),
            tolerance=clean.tolerance,
            checks=clean.checks,
        )
    return verdicts
