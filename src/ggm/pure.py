"""Pure-state genuine-multiparty-entanglement engine.

The measure of a pure state is 1 minus the largest squared Schmidt
coefficient over all bipartitions of the parties: zero exactly when the
state is product across some cut, and at most ``1 - 1/min_i d_i`` since a
single-party marginal of dimension d has top eigenvalue at least 1/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import _batch
from .hilbert import Bipartition, PureState, enumerate_bipartitions, matricize

__all__ = ["GgmReport", "max_schmidt_sq", "ggm_pure", "ggm_values", "TIE_TOL"]

# Cuts whose top Schmidt square is within this of the maximum are all
# reported as maximizing; degeneracy (e.g. GHZ) is physically meaningful.
TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GgmReport:
    """Result of a full bipartition sweep.

    Attributes
    ----------
    value : float
        The entanglement measure, ``1 - lambda_sq_max``.
    lambda_sq_max : float
        Largest squared Schmidt coefficient over all cuts.
    maximizing_cuts : tuple of Bipartition
        Every cut within ``TIE_TOL`` of the maximum.
    per_cut : mapping
        Read-only map from each canonical Bipartition to its top squared
        Schmidt coefficient.
    """

    value: float
    lambda_sq_max: float
    maximizing_cuts: tuple[Bipartition, ...]
    per_cut: MappingProxyType


def max_schmidt_sq(state: PureState, cut: Bipartition) -> float:
    """Square of the largest Schmidt coefficient across one bipartition.

    Computed as the top eigenvalue of the smaller-side Gram matrix of the
    matricized state, which is exact at desk scale. This per-cut reference
    is independent of the batched kernel that :func:`ggm_pure` uses.
    """
    if cut.shape != state.shape:
        raise ValueError("bipartition shape does not match state shape")
    mat = matricize(state, cut)
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    gram = mat @ mat.conj().T
    top = float(np.linalg.eigvalsh(gram)[-1])
    return min(max(top, 0.0), 1.0)


def ggm_pure(state: PureState) -> GgmReport:
    """Sweep all canonical bipartitions and report the measure.

    One call of the batched Schmidt kernel shared with the mixed pipeline
    covers every cut; no symmetry reduction is attempted, so ``per_cut``
    is computed, not inferred, for each cut. Returns a :class:`GgmReport`;
    ``value`` lies in ``[0, 1 - 1/min_i d_i]`` and ties among maximizing
    cuts are reported in full.
    """
    cuts = enumerate_bipartitions(state.shape)
    squares = _batch.schmidt_sq_matrix(state.amplitudes[None, :], state.shape.dims)
    row = squares[0].tolist()
    lambda_sq_max = max(row)
    maximizing = tuple(c for c, v in zip(cuts, row) if v >= lambda_sq_max - TIE_TOL)
    return GgmReport(
        value=1.0 - lambda_sq_max,
        lambda_sq_max=lambda_sq_max,
        maximizing_cuts=maximizing,
        per_cut=MappingProxyType(dict(zip(cuts, row))),
    )


def ggm_values(amplitude_rows: np.ndarray, shape) -> np.ndarray:
    """Measure values for a batch of amplitude rows on a common shape.

    One call of the batched Schmidt kernel over every canonical cut; rows
    are assumed normalized.
    """
    return 1.0 - _batch.schmidt_sq_matrix(np.asarray(amplitude_rows, dtype=complex),
                                          shape.dims).max(axis=1)
