"""Shared pytest hooks and fixtures: the acceptance checklist after every run,
an objective that records the batches the phases evaluate, and one whose
values tie often."""

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, status in sorted(RESULTS):
        terminalreporter.write_line(f"CRITERION {number} ({name}): {status}")


class BatchRecorder:
    """A benchmark instance as the phases see it, recording every batch size."""

    def __init__(self, instance):
        self.instance = instance
        self.bounds = instance.bounds
        self.sizes = []

    def __call__(self, x):
        return self.instance.evaluate(x)

    def evaluate_batch(self, x):
        self.sizes.append(len(x))
        return self.instance.evaluate_batch(x)


class Terraces:
    """A batch-capable objective with wide flat steps, so pool fitness ties."""

    bounds = (-100.0, 100.0)

    def __call__(self, x):
        return self.evaluate_batch(x[np.newaxis])[0]

    def evaluate_batch(self, x):
        return np.floor(np.abs(x).sum(axis=1) / 100.0)


@pytest.fixture
def batch_recorder():
    return BatchRecorder


@pytest.fixture
def terraces():
    return Terraces()
