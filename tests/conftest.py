"""Shared fixtures: the paper's example loop and common machines."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.machine.config import example_config, paper_config
from repro.sched.modulo import modulo_schedule
from repro.workloads.kernels import example_loop


@pytest.fixture(scope="session")
def example_machine():
    return example_config()


@pytest.fixture(scope="session")
def paper_l3():
    return paper_config(3)


@pytest.fixture(scope="session")
def paper_l6():
    return paper_config(6)


@pytest.fixture()
def example():
    """A fresh copy of the Section 4.1 loop."""
    return example_loop()


@pytest.fixture(scope="session")
def example_schedule(example_machine):
    """The example loop scheduled on the example machine (II = 1)."""
    return modulo_schedule(example_loop().graph, example_machine)


@pytest.fixture()
def forked_workers():
    """Skip unless pool workers are forked.

    Only a forked worker inherits what a test patched before its pool
    started; under ``spawn`` or ``forkserver`` (Python 3.14's Linux
    default) it imports the package afresh and runs the unpatched code.
    """
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit a test's patches only when forked")
