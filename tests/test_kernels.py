"""The numpy cone kernels: one implementation each, and margin edge cases."""

import numpy as np
import pytest

from schouten import _kernels


def test_public_kernels_are_the_numpy_definitions():
    # the e_k passes inside membership and margin call the private name, so
    # the public names must be that very function, not a wrapper around it
    assert _kernels.BACKEND == "numpy"
    assert _kernels.elementary_symmetric is _kernels._elementary_symmetric_np
    assert _kernels.gamma_member is _kernels._gamma_member_np
    assert _kernels.gamma_margin is _kernels._gamma_margin_np
    assert _kernels.radial_sphere_eigs is _kernels._radial_sphere_eigs_np


def test_margin_zero_vector_is_boundary():
    lam = np.zeros((1, 4))
    assert _kernels.gamma_margin(lam, 2)[0] == 0.0


def test_margin_scale_invariance_small_vectors():
    lam = np.array([[3.0, 1.0, 1.0]])
    base = _kernels.gamma_margin(lam, 1)[0]
    tiny = _kernels.gamma_margin(1e-9 * lam, 1)[0]
    assert tiny == pytest.approx(1e-9 * base, rel=1e-9)
