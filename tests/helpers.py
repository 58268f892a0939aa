"""Test-side references, independent of the code they check.

The dense twirl builds each group element as the Kronecker product of its
factors, party 0 most significant, and averages g A g^dagger over the
elements. ``hessian_report`` drives the library's central-difference
Hessian on a plain function of simplex points, as ``ggm_mixed`` drives it
on a surface.
"""

import functools
from typing import NamedTuple

import numpy as np

from ggm import roof


def kron_all(factors):
    return functools.reduce(np.kron, factors, np.ones((1, 1), dtype=complex))


def dense_twirl(group, operator):
    """(1/|G|) sum_g g A g^dagger over full matrices, for a D x D array A."""
    fulls = [kron_all(el.factors) for el in group.elements]
    return sum(m @ operator @ m.conj().T for m in fulls) / group.order


class HessianReport(NamedTuple):
    min_eigenvalues: np.ndarray
    skipped: np.ndarray
    flagged: np.ndarray


def hessian_report(f, points, h=roof.HESSIAN_STEP):
    """Minimum Hessian eigenvalue of ``f`` at each of the (K, arity) ``points``.

    ``f`` maps a vector of free simplex coordinates to a value. Points closer
    than ``2 h`` to the simplex boundary are skipped, keep a NaN eigenvalue,
    and ``f`` is called neither at them nor at their stencils; an evaluated
    point is flagged when its eigenvalue falls below ``-NONCONVEX_TOL``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))

    def apply(pts):
        return np.array([f(p) for p in pts], dtype=float)

    min_eig = roof._hessian_min_eig(points, h, lambda rows: apply(points[rows]),
                                    lambda stencil, _owners: apply(stencil))
    skipped = ~roof._interior(points, h)
    return HessianReport(min_eig, skipped, ~skipped & (min_eig < -roof.NONCONVEX_TOL))
