"""Mixed-state pipeline: phase minimization, convexity diagnostics, and
convex envelopes over the mixing simplex.

For a mixed state invariant under a finite local-unitary group, the
entanglement equals the phase-minimized pure value of any preimage member,
convexified over the mixing parameters where the minimized value fails to
be convex. The decomposition sampler provides an independent upper bound
on the same quantity, so the two routes can be cross-checked without a
closed form.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _batch, pure
from .hilbert import DensityMatrix, PureState
from .twirl import UnitaryGroup, VerificationError, _verify_family

__all__ = [
    "TwirledFamily",
    "GgmSurface",
    "min_phase_ggm",
    "min_phase_ggm_many",
    "convex_envelope_1d",
    "convex_envelope_2d",
    "lower_hull_contacts",
    "envelope_evaluator_2d",
    "ggm_mixed",
    "closed_form",
    "hjw_upper_bound",
    "simplex_grid",
    "CLOSED_FORMS",
    "HESSIAN_STEP",
    "NONCONVEX_TOL",
]

HESSIAN_STEP = 1e-3
NONCONVEX_TOL = 1e-6
DEFAULT_GRID_1D = 201
DEFAULT_GRID_2D = 101


@dataclass(frozen=True, eq=False)
class TwirledFamily:
    """A twirl-invariant mixture together with its phase-orbit preimage.

    ``basis`` is the orthonormal list of pure states being mixed.
    Construction verifies, at every weight vector w of the mixing simplex
    and exactly rather than at sampled phases, that the group twirl fixes
    the mixture sum_k w_k |basis_k><basis_k| and maps every phased
    superposition of the basis onto it: each basis state must be an
    eigenvector of every element, and the characters of any two must be
    orthogonal over the group. Both checks run on the per-party factors
    without forming a D x D matrix; either failure raises
    :class:`VerificationError`, which names the element and basis state, or
    the basis pair, that break it.
    The family is immutable, so nothing downstream checks it again, and
    its phase ``objective`` is built once, on first use: a family built
    only to be checked pays for no blocks or tables.

    ``param_names``/``weight_map`` describe how points of the family's
    mixing simplex translate to weight vectors (identity padding with the
    residual weight when no map is given, which takes n_basis - 1 names).
    A ``weight_map`` works on whole arrays: it maps a (..., arity) array of
    points to the (..., n_basis) array of their weight vectors, one row per
    point, as :meth:`params_to_weights` does.
    """

    group: UnitaryGroup
    basis: tuple[PureState, ...]
    name: str = ""
    param_names: tuple[str, ...] = ()
    weight_map: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)

    def __post_init__(self):
        basis = tuple(self.basis)
        if len(basis) < 2:
            raise ValueError("a twirled family needs at least two basis states")
        object.__setattr__(self, "basis", basis)
        if not self.param_names:
            names = ("x",) if len(basis) == 2 else tuple(
                f"x{i + 1}" for i in range(len(basis) - 1))
            object.__setattr__(self, "param_names", names)
        elif self.weight_map is None and len(self.param_names) != len(basis) - 1:
            raise ValueError(
                f"param_names has {len(self.param_names)} name(s); a family of "
                f"{len(basis)} basis states without a weight_map takes {len(basis) - 1}")
        inv, pre, (moved, pair) = _verify_family(self.group, basis)
        if not inv.ok:
            raise VerificationError(
                f"group does not fix the family's mixtures "
                f"(deviation {inv.max_deviation:.3e}): {moved}")
        if not pre.ok:
            raise VerificationError(
                f"family fails the preimage check (deviation {pre.max_deviation:.3e}): "
                f"{pair}")

    @functools.cached_property
    def objective(self) -> _batch.PhaseObjective:
        return _batch.PhaseObjective(np.stack([b.amplitudes for b in self.basis]),
                                     self.shape.dims)

    @property
    def shape(self):
        return self.basis[0].shape

    def target_at(self, weights) -> DensityMatrix:
        return DensityMatrix.mixture(self.basis, weights)

    def params_to_weights(self, params) -> np.ndarray:
        """Weight vectors for points of the mixing simplex.

        ``params`` has shape (..., arity), one point per row; the result has
        shape (..., n_basis). A single point gives a single vector. Raises
        ``ValueError`` if any point leaves the simplex.
        """
        params = np.atleast_1d(np.asarray(params, dtype=float))
        if params.shape[-1] != len(self.param_names):
            raise ValueError(
                f"expected {len(self.param_names)} parameters, got {params.shape[-1]}")
        if self.weight_map is not None:
            w = np.asarray(self.weight_map(params), dtype=float)
            expected = params.shape[:-1] + (len(self.basis),)
            if w.shape != expected:
                raise ValueError(
                    f"weight_map returned shape {w.shape} for parameters of shape "
                    f"{params.shape}; expected {expected}")
        else:
            rest = 1.0 - params.sum(axis=-1, keepdims=True)
            w = np.concatenate([params, rest], axis=-1)
        bad = _off_simplex(w)
        if bad.any():
            raise ValueError(f"parameters {params[bad] if bad.ndim else params} "
                             f"leave the mixing simplex")
        return _snapped(w)


def _snapped(weights: np.ndarray) -> np.ndarray:
    """``weights`` with entries below 4 ulps of 1 set to exactly 0.

    A residual weight such as 1 - x1 - x2 on the face x1 + x2 = 1 keeps
    the rounding of the grid coordinates, up to 1.1e-16 on the built-in
    grids. The measure grows like sqrt(w) near a face, so that residue
    moves raw by up to 5.7e-9, and a closed form by up to 9.9e-9.
    """
    return np.where(weights < 4.0 * np.finfo(float).eps, 0.0, weights)


def _off_simplex(weights: np.ndarray) -> np.ndarray:
    """Which weight vectors of a (..., n_basis) array leave the mixing
    simplex: a weight below -1e-9, or a sum off 1 by more than 1e-9. A
    vector with a NaN or infinite weight is off it too, tested first: a sum
    of inf and -inf would warn before the comparison rejects it."""
    finite = np.isfinite(weights).all(axis=-1)
    weights = np.where(finite[..., None], weights, 0.0)
    return ~(finite & (weights.min(axis=-1) >= -1e-9)
             & (np.abs(weights.sum(axis=-1) - 1.0) <= 1e-9))


def min_phase_ggm_many(family: TwirledFamily, params) -> tuple[np.ndarray, np.ndarray]:
    """Phase-minimized values at many simplex parameter points at once.

    Vectorized raw-surface evaluation without envelope or Hessian columns;
    returns ``(values, phases)`` with shapes (K,) and (K, n_basis).
    """
    weights = family.params_to_weights(np.atleast_2d(params))
    return _batch.minimize_phases(family.objective, weights)


def min_phase_ggm(family: TwirledFamily, weights) -> tuple[float, np.ndarray]:
    """Minimize the pure measure of a preimage member over its free phases.

    A cold start of :func:`ggm._batch.minimize_phases`: a phase lattice
    seed, then coordinate descent that keeps a phase already bracketing a
    minimum and refines any other by golden section, until a cycle keeps
    every phase or ``_batch.PHASE_CYCLES`` cycles have run. Weights below
    4 ulps of 1 count as 0, as in :meth:`TwirledFamily.params_to_weights`,
    and drop their element from the search; the first active element
    carries phase 0 as the gauge. Raises ``ValueError`` for weights off
    the mixing simplex, by the same method's rule.

    Returns ``(value, phases)`` with one phase per basis element.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(family.basis),):
        raise ValueError("weights length does not match the family basis")
    if _off_simplex(weights):
        raise ValueError(f"weights {weights} are not a probability vector")
    values, phases = _batch.minimize_phases(family.objective, _snapped(weights)[None, :])
    return float(values[0]), phases[0]


def _interior(points: np.ndarray, h: float) -> np.ndarray:
    """Points at least ``2 h`` inside the simplex, where the stencil fits."""
    return np.minimum(points.min(axis=1), 1.0 - points.sum(axis=1)) >= 2.0 * h


def _hessian_offsets(arity: int, h: float):
    """Stencil offsets (beyond the center) for a central-difference Hessian."""
    offsets = []
    for i in range(arity):
        e = np.zeros(arity)
        e[i] = h
        offsets.extend([e.copy(), -e])
    for i in range(arity):
        for j in range(i + 1, arity):
            ei, ej = np.zeros(arity), np.zeros(arity)
            ei[i] = h
            ej[j] = h
            offsets.extend([ei + ej, ei - ej, -ei + ej, -ei - ej])
    return np.array(offsets)


def _hessian_min_eig(points: np.ndarray, h: float,
                     center: Callable[[np.ndarray], np.ndarray],
                     evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
                     ) -> np.ndarray:
    """Minimum central-difference Hessian eigenvalue at each interior point.

    ``center(rows)`` gives the function at the interior rows of ``points``;
    ``evaluate(stencil_points, owner_rows)`` gives it at every stencil
    point, each with the row of the point it belongs to. Both are called
    once, and only for interior points. Points outside the interior get NaN.
    """
    k, arity = points.shape
    min_eig = np.full(k, np.nan)
    rows = np.flatnonzero(_interior(points, h))
    if rows.size == 0:
        return min_eig
    offsets = _hessian_offsets(arity, h)
    stencil = (points[rows][:, None, :] + offsets[None, :, :]).reshape(-1, arity)
    values = evaluate(stencil, np.repeat(rows, len(offsets))).reshape(rows.size, -1)
    mid = center(rows)
    hess = np.empty((rows.size, arity, arity))
    for i in range(arity):
        hess[:, i, i] = (values[:, 2 * i] - 2.0 * mid + values[:, 2 * i + 1]) / (h * h)
    pos = 2 * arity
    for i in range(arity):
        for j in range(i + 1, arity):
            fpp, fpm, fmp, fmm = values[:, pos:pos + 4].T
            pos += 4
            hess[:, i, j] = hess[:, j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    min_eig[rows] = np.linalg.eigvalsh(hess)[:, 0]
    return min_eig


def lower_hull_contacts(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices of the samples on the lower convex hull (monotone chain)."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if t.size < 2:
        raise ValueError("need at least 2 samples")
    if np.any(np.diff(t) <= 0):
        raise ValueError("abscissae must be strictly increasing")
    hull = [0]
    for i in range(1, t.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (t[b] - t[a]) * (values[i] - values[a]) \
                - (values[b] - values[a]) * (t[i] - t[a])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.array(hull)


def convex_envelope_1d(t, values) -> np.ndarray:
    """Greatest convex minorant of 1-D samples, evaluated at the abscissae."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    contacts = lower_hull_contacts(t, values)
    env = np.interp(t, t[contacts], values[contacts])
    return np.minimum(env, values)


def envelope_evaluator_2d(points, values) -> Callable[[np.ndarray], np.ndarray]:
    """Callable evaluating the 2-D lower convex envelope at query points.

    The envelope is the maximum over the lower faces of the convex hull of
    the lifted cloud (x1, x2, value); each lower face extends to a
    supporting plane of the envelope, so the pointwise maximum of the face
    planes reproduces it everywhere inside the sampled region.
    """
    return _lower_hull_2d(points, values)[0]


def _lower_hull_2d(points, values) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """:func:`envelope_evaluator_2d` and the indices of the samples that are
    vertices of a lower hull face (none for affine data)."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("expected an (K, 2) array of grid points")
    if points.shape[0] < 3:
        raise ValueError("need at least 3 grid points")
    centered = points - points.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
        raise ValueError("grid points are collinear")

    # Affine data makes the lifted cloud flat, which Qhull rejects; the
    # envelope is then the fitted plane itself.
    design = np.column_stack([np.ones(points.shape[0]), points])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    if np.max(np.abs(design @ coeffs - values)) < 1e-12:
        def affine(query):
            query = np.atleast_2d(np.asarray(query, dtype=float))
            return coeffs[0] + query @ coeffs[1:]
        return affine, np.empty(0, dtype=int)

    # Imported here, not at module level: only a 2-D hull needs Qhull, and
    # loading scipy.spatial would slow the start of every other command.
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(np.column_stack([points, values]))
    except QhullError as exc:
        raise ValueError(f"degenerate grid for the convex envelope: {exc}") from exc
    faces = hull.equations[:, 2] < -1e-12
    lower = hull.equations[faces]
    normals = lower[:, :2].T

    def evaluate(query):
        query = np.atleast_2d(np.asarray(query, dtype=float))
        out = np.empty(query.shape[0])
        # Row blocks of about _BLOCK_ENTRIES planes bound the temporaries.
        step = max(1, _batch._BLOCK_ENTRIES // lower.shape[0])
        for start in range(0, query.shape[0], step):
            # plane: n0 x + n1 y + n2 z + off = 0  ->  z = -(n0 x + n1 y + off)/n2
            planes = -(_batch._combine(query[start:start + step], normals)
                       + lower[:, 3]) / lower[:, 2]
            out[start:start + step] = planes.max(axis=1)
        return out

    return evaluate, np.unique(hull.simplices[faces])


def convex_envelope_2d(points, values) -> np.ndarray:
    """Lower convex envelope of samples over a 2-D region, at the samples.

    A vertex of a lower hull face lies on the envelope, which there equals
    its own sample; the face planes are evaluated only at the other samples.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    evaluate, vertices = _lower_hull_2d(points, values)
    envelope = values.copy()
    rest = np.ones(values.shape, dtype=bool)
    rest[vertices] = False
    envelope[rest] = np.minimum(evaluate(points[rest]), values[rest])
    return envelope


def simplex_grid(resolution: int, arity: int) -> np.ndarray:
    """Lexicographically ordered grid on the ``arity``-dimensional simplex.

    For arity 1 this is ``resolution`` points on [0, 1]; for arity 2 the
    triangular grid with ``resolution`` points per axis.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis = np.linspace(0.0, 1.0, resolution)
    if arity == 1:
        return axis[:, None]
    if arity == 2:
        pts = [(a, b) for a in axis for b in axis if a + b <= 1.0 + 1e-12]
        return np.array(pts)
    raise ValueError("simplex grids are provided for 1 or 2 parameters")


@dataclass(frozen=True, eq=False)
class GgmSurface:
    """Sampled mixed-state measure over the mixing simplex.

    ``raw`` is the phase-minimized value per grid point, ``envelope`` its
    convexification over the sampled region, ``hessian_min_eig`` the
    minimum Hessian eigenvalue (NaN near the boundary), ``phase_argmin``
    the minimizing phases per point (one column per basis element). Where
    two tied phase branches cross, ``raw`` has a concave kink and the
    Hessian column holds a finite difference of order 1/h (-109.56 to
    -4518.6 at 24 points of figure 7 at grid 41): only its sign, the flag, counts.
    """

    param_names: tuple[str, ...]
    grid: np.ndarray
    weights: np.ndarray
    raw: np.ndarray
    envelope: np.ndarray
    hessian_min_eig: np.ndarray
    phase_argmin: np.ndarray

    def envelope_at(self, query) -> np.ndarray:
        """Envelope value at points (K, arity), or one point, of the sampled
        region. Raises ``ValueError`` for another arity, or a point off the
        simplex (residual 1 - sum) by ``params_to_weights``' rule."""
        query = np.atleast_2d(np.asarray(query, dtype=float))
        if query.shape[1] != self.grid.shape[1]:
            raise ValueError(f"expected {self.grid.shape[1]} parameters, got {query.shape[1]}")
        with np.errstate(invalid="ignore"):
            bad = _off_simplex(np.column_stack([query, 1.0 - query.sum(axis=1)]))
        if bad.any():
            raise ValueError(f"points {query[bad]} leave the parameter simplex")
        return self._envelope_evaluator(query)

    @functools.cached_property
    def _envelope_evaluator(self) -> Callable[[np.ndarray], np.ndarray]:
        # Built on first use and kept: the surface is immutable.
        if self.grid.shape[1] == 2:
            return envelope_evaluator_2d(self.grid, self.raw)
        contacts = lower_hull_contacts(self.grid[:, 0], self.raw)
        knots, values = self.grid[contacts, 0], self.raw[contacts]
        return lambda query: np.interp(query[:, 0], knots, values)

    def write_csv(self, stream) -> None:
        phase_cols = [f"phase_{i + 1}" for i in range(self.phase_argmin.shape[1])]
        csv.writer(stream, lineterminator="\n").writerow(
            list(self.param_names) + ["raw", "envelope", "hessian_min_eig"] + phase_cols)
        table = np.column_stack([self.grid, self.raw, self.envelope,
                                 self.hessian_min_eig, self.phase_argmin])
        # One "%.12g" template per row; it prints nan as "nan".
        template = ",".join(["%.12g"] * table.shape[1]) + "\n"
        stream.writelines(template % tuple(row) for row in table.tolist())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def ggm_mixed(family: TwirledFamily, grid=None, *,
              grid_resolution: int | None = None) -> GgmSurface:
    """Full mixed-state pipeline over a simplex grid of family parameters.

    Phase-minimizes the pure measure at every grid point of a family
    verified at its construction, convexifies over the sampled simplex (1-
    or 2-parameter grids), and fills central-difference Hessian diagnostics
    at interior points. Their stencils start from each point's minimizing
    phases, with the cold start's cycle budget and stop rule. Where the
    objective is flat in a phase, that phase keeps its seed lattice value.
    """
    arity = len(family.param_names)
    if arity > 2:
        raise ValueError(
            f"surface pipeline supports 1- or 2-parameter families; "
            f"{family.name or 'family'} has {arity} (use min_phase_ggm_many "
            f"for raw values)")
    if grid is None:
        if grid_resolution is None:
            grid_resolution = DEFAULT_GRID_1D if arity == 1 else DEFAULT_GRID_2D
        grid = simplex_grid(grid_resolution, arity)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != arity:
        raise ValueError(f"grid arity {grid.shape[1]} does not match family "
                         f"parameters {family.param_names}")

    weights = family.params_to_weights(grid)
    raw, phases = _batch.minimize_phases(family.objective, weights)

    if arity == 1:
        envelope = convex_envelope_1d(grid[:, 0], raw)
    else:
        envelope = convex_envelope_2d(grid, raw)

    def stencil_values(points, owners):
        # Warm-started from each owner's own minimizing phases.
        values, _ = _batch.minimize_phases(
            family.objective, family.params_to_weights(points), phases[owners])
        return values

    hessian = _hessian_min_eig(grid, HESSIAN_STEP, raw.__getitem__, stencil_values)

    return GgmSurface(
        param_names=tuple(family.param_names),
        grid=grid,
        weights=weights,
        raw=raw,
        envelope=envelope,
        hessian_min_eig=hessian,
        phase_argmin=phases,
    )


def _closed_form_rank2_sym(weights):
    x, rest = weights
    return 0.5 * (1.0 - 2.0 * math.sqrt(x * rest))


def _closed_form_rank3_ghz_w(weights):
    x1, x2, x3 = weights
    cross = math.sqrt(max(x2 * x3, 0.0))
    radicand = (1.0 - 5.0 * x1 * x1 - 12.0 * x2 * (x2 - 1.0)
                + 8.0 * math.sqrt(max(6.0 * x1 * x2, 0.0)) * (1.0 + cross - x1 - x2)
                + 4.0 * x1 * (1.0 + 3.0 * cross - 3.0 * x2))
    return (3.0 - math.sqrt(max(radicand, 0.0))) / 6.0


def _closed_form_rank5_5qubit(weights):
    x1, x2, x3 = weights
    a = (2.0 * x1 + 4.0 * x2 + 3.0) / 10.0
    b = (7.0 - 2.0 * x1 - 4.0 * x2) / 10.0
    c = (math.sqrt(max(x1 * x2, 0.0) / 20.0)
         + math.sqrt(max(x1 * x3, 0.0) / 20.0)
         + 2.0 * x2 / (5.0 * math.sqrt(2.0))
         + 2.0 * x3 / (5.0 * math.sqrt(2.0))
         + 0.3 * math.sqrt(max(x2 * x3, 0.0)))
    return 0.5 * (1.0 - math.sqrt(max(1.0 - 4.0 * (a * b - c * c), 0.0)))


def _closed_form_qutrit(weights):
    x1, x2, x3 = weights
    return (2.0 / 3.0) * (1.0 - math.sqrt(max(x1 * x2, 0.0))
                          - math.sqrt(max(x1 * x3, 0.0))
                          - math.sqrt(max(x2 * x3, 0.0)))


CLOSED_FORMS = {
    "rank2_sym": (1, _closed_form_rank2_sym),
    "rank3_ghz_w": (2, _closed_form_rank3_ghz_w),
    "rank5_5qubit": (2, _closed_form_rank5_5qubit),
    "qutrit": (2, _closed_form_qutrit),
}


def closed_form(form_id: str, params) -> float:
    """Literal evaluation of one of the printed mixed-state expressions.

    Each expression reads the weight vector of ``params``, the residual
    weight last, with weights below 4 ulps of 1 set to exactly 0 as
    :meth:`TwirledFamily.params_to_weights` sets them, so on the face
    x1 + x2 = 1 it matches ``raw`` to rounding.
    """
    if form_id not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {form_id!r}; "
                         f"expected one of {sorted(CLOSED_FORMS)}")
    arity, fn = CLOSED_FORMS[form_id]
    params = np.asarray(params, dtype=float).reshape(-1)
    if params.size != arity:
        raise ValueError(f"{form_id} takes {arity} parameter(s), got {params.size}")
    if not (params.min() >= -1e-12 and params.sum() <= 1.0 + 1e-12):
        raise ValueError(f"parameters {params} lie outside the closed simplex")
    params = np.clip(params, 0.0, 1.0)
    return float(fn(_snapped(np.append(params, 1.0 - params.sum())).tolist()))


def _haar_isometries(rng: np.random.Generator, count: int, m: int,
                     rank: int) -> np.ndarray:
    """``count`` Haar-random m x rank isometries, shape (count, m, rank).

    One Gaussian draw holds, per isometry, the real then the imaginary part
    of an m x rank matrix, so the stream is the same however the draws are
    split; one stacked QR orthonormalizes them all, and the phases of R's
    diagonal are moved into Q so that Q is Haar-distributed.
    """
    raw = rng.standard_normal((count, 2, m, rank))
    q, r = np.linalg.qr(raw[:, 0] + 1j * raw[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def hjw_upper_bound(rho: DensityMatrix, m: int, samples: int, seed: int) -> float:
    """Decomposition-sampling upper bound on the convex-roof measure.

    Every decomposition of ``rho`` into ``m`` pure states arises from an
    m x r isometry applied to the weighted eigenbasis (r = rank); sampling
    isometries by QR-orthonormalization of complex Gaussian matrices and
    averaging the pure measure over each decomposition bounds the roof from
    above. The eigendecomposition itself is always included as the first
    candidate, and results are deterministic for a fixed seed.

    Isometries come in blocks, each from one Gaussian draw and one stacked
    QR. Every member lies in the range of ``rho``, so its measure is read
    from its coefficients over the eigenbasis. Up to rank
    ``_batch._TABLE_MAX_BASIS`` one :class:`~ggm._batch.PhaseObjective`
    reads them: each cut's Gram is one product of the member's
    outer-product reals with a table built from the compressed eigenbasis
    blocks, and one cut is evaluated per orbit of the party swaps that leave
    every eigenbasis vector exactly unchanged, as they fix every member too.
    Above that rank the members' amplitudes are formed, in row blocks of
    about ``_batch._BLOCK_ENTRIES`` entries, and read by
    :func:`~ggm.pure.ggm_values` on every cut. No other symmetry is assumed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    eigvals, eigvecs = np.linalg.eigh(rho.entries)
    keep = eigvals > 1e-12
    lam, vecs = eigvals[keep], eigvecs[:, keep]
    rank = int(lam.size)
    if m < rank:
        raise ValueError(f"decomposition size {m} is below the rank {rank}")

    if rank <= _batch._TABLE_MAX_BASIS:
        measure = _batch.PhaseObjective(vecs.T, rho.shape.dims).measure
    else:
        basis = vecs.T
        rows = max(1, _batch._BLOCK_ENTRIES // basis.shape[1])

        def measure(coeff):
            out = np.empty(len(coeff))
            for start in range(0, len(coeff), rows):
                out[start:start + rows] = pure.ggm_values(
                    _batch._combine(coeff[start:start + rows], basis), rho.shape)
            return out

    sqrt_lam = np.sqrt(lam)

    def average_measures(iso):
        # Member j of a sample is sum_i conj(iso[j, i]) sqrt(lam_i) |e_i>.
        coeff = iso.conj() * sqrt_lam
        p = np.sum(np.abs(coeff) ** 2, axis=-1)
        live = p > 1e-14
        vals = np.zeros(p.shape)
        vals[live] = measure(coeff[live] / np.sqrt(p[live])[:, None])
        return np.sum(p * vals, axis=1)

    best = float(average_measures(np.eye(m, rank, dtype=complex)[None])[0])
    # Draws go in blocks so that memory stays bounded for any sample count.
    rng = np.random.default_rng(seed)
    step = max(1, _batch._BLOCK_ENTRIES // (m * rank))
    for start in range(1, samples, step):
        iso = _haar_isometries(rng, min(step, samples - start), m, rank)
        best = min(best, float(np.min(average_measures(iso))))
    return max(best, 0.0)
