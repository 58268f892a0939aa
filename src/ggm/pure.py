"""Pure-state genuine-multiparty-entanglement engine.

The measure of a pure state is 1 minus the largest squared Schmidt
coefficient over all bipartitions of the parties: zero exactly when the
state is product across some cut, and at most ``1 - 1/min_i d_i`` since a
single-party marginal of dimension d has top eigenvalue at least 1/d.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
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
        Schmidt coefficient. It is computed on first access, by one pass of
        the full kernel over every cut of the state.
    """

    value: float
    lambda_sq_max: float
    maximizing_cuts: tuple[Bipartition, ...]
    _state: PureState = field(repr=False)

    @functools.cached_property
    def per_cut(self) -> MappingProxyType:
        squares = _batch.schmidt_sq_matrix(self._state.amplitudes[None, :],
                                           self._state.shape.dims)
        return MappingProxyType(dict(zip(enumerate_bipartitions(self._state.shape),
                                         squares[0].tolist())))


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

    One call of the batched Schmidt kernel covers every cut: it gathers
    only the largest reduced states and traces the others from them (see
    ``_batch.schmidt_sq_matrix``), and skips the top eigenvalue of each cut
    that provably cannot reach the maximum (see ``_batch._store_tops``); no
    symmetry reduction is attempted. ``per_cut`` is computed on first
    access by the full kernel. Returns a :class:`GgmReport`; ``value`` lies in
    ``[0, 1 - 1/min_i d_i]`` and ties among maximizing cuts are reported in
    full.
    """
    row = _batch.schmidt_sq_matrix(state.amplitudes[None, :], state.shape.dims,
                                   max_only=True)[0]
    lambda_sq_max = float(row.max())
    maximizing = tuple(itertools.compress(enumerate_bipartitions(state.shape),
                                          (row >= lambda_sq_max - TIE_TOL).tolist()))
    return GgmReport(
        value=1.0 - lambda_sq_max,
        lambda_sq_max=lambda_sq_max,
        maximizing_cuts=maximizing,
        _state=state,
    )


def ggm_values(amplitude_rows: np.ndarray, shape) -> np.ndarray:
    """Measure values for a batch of amplitude rows on a common shape.

    One call of the batched Schmidt kernel over every canonical cut, which
    skips the top eigenvalue of each cut that cannot reach its row's
    maximum, as :func:`ggm_pure` does; rows are assumed normalized.
    """
    return 1.0 - _batch.schmidt_sq_matrix(np.asarray(amplitude_rows, dtype=complex),
                                          shape.dims, max_only=True).max(axis=1)
