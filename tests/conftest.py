"""Helpers shared by the test modules, which import them with `from conftest import ...`."""

import functools

import numpy as np

from orbitdeform import algebra as al


@functools.lru_cache(maxsize=None)
def cartan(desc):
    """The Cartan data of a descriptor ("sl3c") or a (family, n) pair, built once per run."""
    family, n = desc if isinstance(desc, tuple) else al.parse_descriptor(desc)
    return al.cartan_structure(al.build_algebra(family, n))


def fiber_draws(cd, h, seed, n_fiber):
    """The sampler's seeded fiber elements X_c in n_H^+, before any Ad(k)."""
    n_plus, _, _ = al.h_subspaces(cd, h)
    coeffs = np.random.default_rng([seed, 0x5F1BE]).standard_normal((n_fiber, n_plus.shape[1]))
    return coeffs @ n_plus.T
