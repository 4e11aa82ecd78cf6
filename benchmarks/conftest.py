"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper through the
experiment harness.  The expensive artefacts (datasets, model pools, Muffin
searches) are cached in a session-scoped :class:`ExperimentContext`, so the
reported times measure the incremental cost of each experiment on top of the
shared substrate — mirroring how the paper's evaluation reuses one trained
model pool across all figures.
"""

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments import ExperimentConfig, ExperimentContext  # noqa: E402


def bench_config() -> ExperimentConfig:
    """Benchmark-scale configuration.

    Reduced from the paper's 500-episode searches so the full harness runs
    in a few minutes, while keeping the datasets large enough for every
    qualitative claim to reproduce.
    """
    return ExperimentConfig(
        isic_samples=6000,
        fitzpatrick_samples=5000,
        zoo_epochs=40,
        search_episodes=64,
        episode_batch=8,
        head_epochs=25,
    )


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    return ExperimentContext(bench_config())


@pytest.fixture(scope="session")
def identity_only() -> bool:
    """True under ``REPRO_BENCH_IDENTITY_ONLY=1``: wall-clock assertions are
    skipped on constrained runners while identity checks still run."""
    return bool(os.environ.get("REPRO_BENCH_IDENTITY_ONLY"))
