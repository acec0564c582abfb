"""The NumPy kernel family of this process, for the pins that depend on it.

NumPy picks its float64 ``exp`` and ``log`` kernels by CPU when it is
imported, and the AVX-512 and AVX2 kernels differ in some last bits.  The
same host runs the AVX2 ones under
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``.  A pin whose
bits come from those kernels keeps one exact value per family, keyed by
the family's name; the ``kernel_family`` fixture names the family from a
canary digest, and fails on a canary no pin set was measured on.

It also holds the module-scoped Shannon and Morlet banks at N=256 and
their constants, which several test modules share.
"""
import hashlib

import numpy as np
import pytest

from scatdecay.decay import compute_constants
from scatdecay.filterbank import build_bank, morlet_mother, shannon_mother

# canary digest -> kernel family
KERNEL_FAMILIES = {
    "b899069570a47246": "avx512",
    "5d71fa70c1e062f1": "avx2",
}


def kernel_canary() -> str:
    """sha1 of np.exp, np.cos and np.log on fixed grids, first 16 hex digits."""
    x = np.linspace(-700.0, 700.0, 1 << 16)
    digest = hashlib.sha1()
    for values in (np.exp(x), np.cos(x), np.log(np.geomspace(1e-300, 1e300, 1 << 16))):
        digest.update(values.tobytes())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="session")
def kernel_family() -> str:
    canary = kernel_canary()
    if canary not in KERNEL_FAMILIES:
        pytest.fail(
            f"unknown NumPy kernel family: canary {canary} (NumPy {np.__version__}); "
            "measure this family's pins and add it to tests/conftest.py"
        )
    return KERNEL_FAMILIES[canary]


@pytest.fixture(scope="module")
def shannon_bank():
    return build_bank(shannon_mother(), 0, 256)


@pytest.fixture(scope="module")
def morlet_bank():
    return build_bank(morlet_mother(), 0, 256)


@pytest.fixture(scope="module")
def shannon_constants(shannon_bank):
    return compute_constants(shannon_bank)


@pytest.fixture(scope="module")
def morlet_constants(morlet_bank):
    return compute_constants(morlet_bank)
