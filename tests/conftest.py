"""Shared fixtures."""

import contextlib

import pytest

import repro.simulation.vectorized as vectorized

#: The two vectorized reception kernels, by the ``DENSE_NODE_CUTOFF`` that
#: selects each one on the suite's small graphs: the default keeps them
#: dense, 0 routes every graph to CSR.
KERNEL_CUTOFFS = {"dense": vectorized.DENSE_NODE_CUTOFF, "sparse": 0}


@contextlib.contextmanager
def on_kernel(kernel):
    """Build vectorized engines on ``kernel`` inside the ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "DENSE_NODE_CUTOFF", KERNEL_CUTOFFS[kernel])
        yield


@pytest.fixture(params=list(KERNEL_CUTOFFS))
def kernel(request):
    """Run the test once per vectorized reception kernel."""
    with on_kernel(request.param):
        yield request.param
