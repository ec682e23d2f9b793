"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gemm import GemmProblem, TileConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_operands(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A modest 96x40 @ 40x48 FP16 operand pair with benign magnitudes."""
    a = (rng.standard_normal((96, 40)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((40, 48)) * 0.5).astype(np.float16)
    return a, b


@pytest.fixture
def small_problem() -> GemmProblem:
    """The GemmProblem matching ``small_operands``."""
    return GemmProblem(96, 48, 40)


@pytest.fixture
def small_tile() -> TileConfig:
    """A small tile configuration legal for any problem."""
    return TileConfig(mb=64, nb=32, kb=32, mw=32, nw=16, mt=4, nt=4)


@pytest.fixture
def key_calls(monkeypatch) -> list:
    """Every ``PreparedCache.key_for`` call made while the test runs.

    Each entry is the call's positional arguments after the cache
    (``scheme, a, b[, tile]``) — content lookups, counted directly
    instead of inferred from timings.
    """
    from repro.abft.base import PreparedCache

    calls: list = []
    key_for = PreparedCache.key_for

    def counting(cache, *args, **kwargs):
        calls.append(args)
        return key_for(cache, *args, **kwargs)

    monkeypatch.setattr(PreparedCache, "key_for", counting)
    return calls
