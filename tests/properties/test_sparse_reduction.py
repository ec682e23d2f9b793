"""Property tests: sparse re-reduction equals the dense batched path.

The bit-exactness contract of DESIGN.md §1.3, pinned element-wise: for
every sparse-capable scheme, every fault kind, both fault paths, and
any mix of trials — including multiple faults landing in the *same*
reduction slice — ``inject_batch(..., sparse=True)`` must produce
outcomes bit-identical to ``inject_batch(..., sparse=False)``: same
verdict fields, same check residuals, same lazily materialized
accumulators, same FP16 outputs.  A second family pins the fault→site
valuation (:func:`repro.faults.injector.faulted_site_values`) against
reading the struck elements out of the dense stacked accumulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.abft import (
    MultiChecksumGlobalABFT,
    get_scheme,
    list_schemes,
    scheme_from_token,
)
from repro.errors import ConfigurationError
from repro.faults import FaultKind, FaultPath, FaultSpec
from repro.faults.injector import faulted_site_values
from repro.gemm import TileConfig

from test_batch_equivalence import (
    assert_outcomes_identical,
    make_scheme,
    _draw_spec,
    _operands,
)

TILE = TileConfig(mb=32, nb=32, kb=32, mw=16, nw=16, mt=4, nt=2)

ALL_SCHEMES = list_schemes() + ["global_multi"]
SPARSE_SCHEMES = [
    name for name in ALL_SCHEMES
    if (MultiChecksumGlobalABFT(2) if name == "global_multi"
        else get_scheme(name)).supports_sparse
]

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


class TestSparseMatchesDense:
    @given(name=st.sampled_from(SPARSE_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_batch_matches_dense_batch(self, name, seed, data):
        """Any trial mix: sparse outcome i == dense outcome i, bit for bit."""
        a, b = _operands(seed)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        rows, cols = prepared.c_clean.shape
        trials = [
            tuple(
                _draw_spec(data, rows, cols)
                for _ in range(data.draw(st.integers(0, 3)))
            )
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        dense = prepared.inject_batch(trials, sparse=False)
        sparse = prepared.inject_batch(trials, sparse=True)
        for d, s in zip(dense, sparse):
            assert_outcomes_identical(d, s)

    @given(name=st.sampled_from(SPARSE_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_sparse_matches_sequential_inject(self, name, seed, data):
        """Transitively: sparse trials match one-at-a-time injects."""
        a, b = _operands(seed)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        rows, cols = prepared.c_clean.shape
        trials = [
            (_draw_spec(data, rows, cols),)
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        sparse = prepared.inject_batch(trials, sparse=True)
        for faults, outcome in zip(trials, sparse):
            assert_outcomes_identical(
                prepared.inject_batch([faults], sparse=False)[0], outcome
            )

    @given(name=st.sampled_from(SPARSE_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_multi_fault_trials_sparse_matches_dense(self, name, seed, data):
        """Campaign-sized fault sets (every trial strictly multi-fault,
        the §2.4 workload): sparse outcome i == dense outcome i, bit
        for bit, including checksum-path faults in the mix."""
        a, b = _operands(seed)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        rows, cols = prepared.c_clean.shape
        trials = [
            tuple(
                _draw_spec(data, rows, cols)
                for _ in range(data.draw(st.integers(2, 6)))
            )
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        dense = prepared.inject_batch(trials, sparse=False)
        sparse = prepared.inject_batch(trials, sparse=True)
        for d, s in zip(dense, sparse):
            assert_outcomes_identical(d, s)

    @pytest.mark.parametrize("name", SPARSE_SCHEMES)
    def test_multiple_faults_in_one_slice(self, name):
        """Two faults in the same reduction slice — and the same element
        twice — must re-reduce that slice once with both applied, in
        spec order, exactly like the dense path; a check struck on both
        the output and the checksum side merges into one entry."""
        a, b = _operands(7)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        same_slice = (
            # TILE has nt=2, mt=4: (1, 0) and (1, 1) share the one-sided
            # row-sum slice; all three sites share the (0, 0) thread tile.
            FaultSpec(row=1, col=0, kind=FaultKind.ADD, value=5.0),
            FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=-9.0),
            FaultSpec(row=1, col=0, kind=FaultKind.SET, value=2.5),
        )
        ordered = (
            FaultSpec(row=2, col=3, kind=FaultKind.SET, value=8.0),
            FaultSpec(row=2, col=3, kind=FaultKind.BITFLIP_FP32, bit=30),
        )
        # One check struck on both sides: the output slice by
        # same_slice, its reference by a checksum-path fault.
        both_sides = same_slice + (
            FaultSpec(row=1, col=0, kind=FaultKind.ADD, value=7.0,
                      path=FaultPath.CHECKSUM),
        )
        trials = [same_slice, ordered, (), same_slice + ordered, both_sides]
        dense = prepared.inject_batch(trials, sparse=False)
        sparse = prepared.inject_batch(trials, sparse=True)
        for d, s in zip(dense, sparse):
            assert_outcomes_identical(d, s)

    @pytest.mark.parametrize(
        "name", sorted(set(ALL_SCHEMES) - set(SPARSE_SCHEMES))
    )
    def test_unsupported_scheme_rejects_forced_sparse(self, name):
        a, b = _operands(3)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        trial = (FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=3.0),)
        with pytest.raises(ConfigurationError):
            prepared.inject_batch([trial], sparse=True)
        # Auto mode silently stays dense for these schemes.
        outcome = prepared.inject_batch([trial])[0]
        assert np.isfinite(outcome.c_accumulator).all()


def _scheme(name, dtype):
    if dtype == "fp16":
        return make_scheme(name)
    token = "global_multi:2" if name == "global_multi" else name
    return scheme_from_token(f"{token}@{dtype}")


class TestFaultFreeFastPath:
    @given(
        name=st.sampled_from(SPARSE_SCHEMES),
        dtype=st.sampled_from(["fp16", "int8"]),
        seed=seeds,
        n_trials=st.integers(1, 6),
        poison=st.sampled_from([None, np.nan, np.inf, -np.inf, 6.0e4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_empty_batch_matches_dense(
        self, name, dtype, seed, n_trials, poison
    ):
        """Fault-free trials take the clean verdict outright on the
        sparse path — field for field what the dense oracle renders,
        for any operands, non-finite or near-overflow included."""
        a, b = _operands(seed)
        if poison is not None:
            a[seed % a.shape[0], seed % a.shape[1]] = poison
        with np.errstate(all="ignore"):
            prepared = _scheme(name, dtype).prepare(a, b, tile=TILE)
            trials = [()] * n_trials
            dense = prepared.inject_batch(trials, sparse=False)
            fast = prepared.inject_batch(trials)
            for d, f in zip(dense, fast):
                assert_outcomes_identical(d, f)


class TestFaultedSiteValues:
    @given(seed=seeds, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_site_values_match_dense_accumulator(self, seed, data):
        """Site valuation == reading the struck elements of the dense
        stacked accumulator, for any kind/path mix and repeat strikes."""
        from repro.abft.base import Scheme

        rng = np.random.default_rng(seed)
        clean = (rng.standard_normal((12, 10)) * 10.0).astype(np.float32)
        trials = [
            tuple(
                _draw_spec(data, *clean.shape)
                for _ in range(data.draw(st.integers(0, 4)))
            )
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        sites = faulted_site_values(clean, trials)
        c_batch = Scheme._apply_original_faults_batch(clean, trials)
        # Bit-level equality against the dense batch, NaN patterns included.
        gathered = c_batch[sites.trials, sites.rows, sites.cols]
        assert np.array_equal(
            sites.values.view(np.uint32), gathered.view(np.uint32)
        )
        # Completeness: zeroing the sites back to clean recovers c_clean.
        c_batch[sites.trials, sites.rows, sites.cols] = clean[
            sites.rows, sites.cols
        ]
        assert np.array_equal(
            c_batch, np.broadcast_to(clean, c_batch.shape), equal_nan=True
        )

    def test_sites_are_unique_and_counted(self):
        clean = np.zeros((4, 4), dtype=np.float32)
        trials = [
            (
                FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=1.0),
                FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=2.0),
                FaultSpec(row=2, col=0, kind=FaultKind.SET, value=5.0,
                          path=FaultPath.CHECKSUM),
            ),
            (),
        ]
        sites = faulted_site_values(clean, trials)
        assert sites.n_trials == 2
        # One unique site: the checksum-path fault never touches the
        # output, and the repeated element collapses to one entry.
        assert len(sites) == 1
        assert (sites.trials[0], sites.rows[0], sites.cols[0]) == (0, 1, 1)
        assert sites.values[0] == np.float32(3.0)
