"""Property tests: every verdict path equals an independent full comparison.

Production renders each verdict of a sparse-capable scheme from its
struck checks alone (``Scheme._render_verdicts`` over the cached
``CleanComparison``), on the sparse path and on the dense walk alike —
checksum-path trials included, their corrupted references spliced in
as struck checks.  The oracle here shares none of that machinery: it
materializes every trial's faulted accumulator, re-reduces the whole
output side with the scheme's dense batch reducer, rebuilds every
trial's references, and runs :func:`compare_checksums_batch` over the
complete check arrays, with the tolerance inputs the scheme states in
``_clean_comparison_inputs``.  Both ``inject_batch(sparse=False)`` and
``inject_batch(sparse=True)`` must match it field for field, for every
sparse-capable scheme, both pipelines, both fault paths, and operands
poisoned with non-finite or near-overflow values — the case where a
NaN clean reference meets a checksum-path fault.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.abft import list_schemes, scheme_from_token
from repro.abft.base import Scheme
from repro.abft.checksums import (
    multi_weighted_output_sums,
    one_sided_output_rowsums_batch,
    output_summation_batch,
    thread_tile_sums_batch,
)
from repro.abft.detection import compare_checksums_batch

from test_batch_equivalence import (
    TILE,
    _draw_spec,
    _operands,
    assert_verdicts_identical,
    make_scheme,
)

ORACLE_SCHEMES = [
    name for name in list_schemes() if make_scheme(name).supports_sparse
] + ["global_multi"]

#: The dense output-side reducer of each sparse-capable scheme.
OUTPUT_SIDE = {
    "global": lambda p, c: output_summation_batch(c),
    "thread_onesided": lambda p, c: one_sided_output_rowsums_batch(p.executor, c),
    "thread_twosided": lambda p, c: thread_tile_sums_batch(p.executor, c),
    "replication_single": lambda p, c: thread_tile_sums_batch(p.executor, c),
    "global_multi": lambda p, c: multi_weighted_output_sums(
        c, p.state.weights_m, p.state.weights_n
    ),
}

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _scheme_for(name, dtype):
    if dtype == "fp16":
        return make_scheme(name)
    return scheme_from_token(f"{name}:2@int8" if name == "global_multi" else f"{name}@int8")


def oracle_verdicts(prepared, trials):
    """Full batched comparison over materialized per-trial check arrays."""
    scheme = prepared.scheme
    clean_lhs, _, n_terms, magnitudes = scheme._clean_comparison_inputs(prepared)
    shape = np.shape(clean_lhs)
    c_batch = Scheme._apply_original_faults_batch(prepared.c_clean, trials)
    references = np.asarray(scheme._references_batch(prepared, trials))
    output_side = np.asarray(OUTPUT_SIDE[scheme.name](prepared, c_batch))
    verdicts = compare_checksums_batch(
        references.reshape(-1, *shape),
        output_side.reshape(-1, *shape),
        n_terms=n_terms,
        magnitudes=magnitudes,
        constants=scheme.default_detection,
    )
    return c_batch, verdicts


class TestVerdictOracle:
    @given(
        name=st.sampled_from(ORACLE_SCHEMES),
        dtype=st.sampled_from(["fp16", "int8"]),
        seed=seeds,
        poison=st.sampled_from([None, np.nan, np.inf, -np.inf, 6.0e4]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_both_paths_match_full_comparison(
        self, name, dtype, seed, poison, data
    ):
        """Dense walk and sparse splice each == the full comparison,
        outcome for outcome, whatever the fault paths and operands."""
        a, b = _operands(seed)
        if poison is not None:
            a[seed % a.shape[0], seed % a.shape[1]] = poison
        with np.errstate(all="ignore"):
            prepared = _scheme_for(name, dtype).prepare(a, b, tile=TILE)
            rows, cols = prepared.c_clean.shape
            trials = [
                tuple(
                    _draw_spec(data, rows, cols)
                    for _ in range(data.draw(st.integers(0, 2)))
                )
                for _ in range(data.draw(st.integers(1, 5)))
            ]
            c_batch, expected = oracle_verdicts(prepared, trials)
            for sparse in (False, True):
                outcomes = prepared.inject_batch(trials, sparse=sparse)
                for i, (outcome, verdict) in enumerate(zip(outcomes, expected)):
                    assert_verdicts_identical(verdict, outcome.verdict)
                    assert np.array_equal(
                        outcome.c_accumulator, c_batch[i], equal_nan=True
                    )
