"""The batched central-difference Hessian, ``roof._hessian_min_eig``: as
``ggm_mixed`` drives it on a surface, and on plain functions of simplex
points through the test-side ``helpers.hessian_report``."""

import numpy as np
import pytest

from ggm import _batch, closed_form, ggm_mixed, rank2_symmetric
from ggm.families import zeta_slice_family
from ggm.roof import NONCONVEX_TOL
from helpers import hessian_report

H = 1e-3


def _rank2_second_derivative(x):
    return 1.0 / (4.0 * (x * (1.0 - x)) ** 1.5)


def _median_relative_error(x, min_eig):
    exact = _rank2_second_derivative(x)
    return float(np.median(np.abs(min_eig - exact) / exact))


@pytest.fixture(scope="module")
def rank2_surface():
    return ggm_mixed(rank2_symmetric(3))


def test_mixed_hessian_matches_rank2_second_derivative(rank2_surface):
    interior = np.isfinite(rank2_surface.hessian_min_eig)
    assert rank2_surface.grid.shape[0] == 201
    assert interior.sum() == 199
    x = rank2_surface.grid[interior, 0]
    assert _median_relative_error(x, rank2_surface.hessian_min_eig[interior]) <= 1e-5


def test_report_matches_rank2_second_derivative(rank2_surface):
    grid = rank2_surface.grid
    report = hessian_report(lambda p: closed_form("rank2_sym", p), grid)
    evaluated = ~report.skipped
    assert np.array_equal(evaluated, np.isfinite(rank2_surface.hessian_min_eig))
    x = grid[evaluated, 0]
    assert _median_relative_error(x, report.min_eigenvalues[evaluated]) <= 1e-5
    assert not report.flagged.any()


def _recording(f, too_close):
    calls = []

    def wrapped(p):
        p = np.asarray(p, dtype=float)
        if too_close(p):
            raise AssertionError(f"f called at {p}, too close to the boundary")
        calls.append(p.copy())
        return f(p)
    return wrapped, calls


def test_report_never_calls_f_within_h_of_the_boundary_1d():
    f, calls = _recording(lambda p: float(p[0] ** 2),
                          lambda p: min(p[0], 1.0 - p[0]) < H)
    # Margins 1.9h (skipped, its stencil would reach 0.9h) and 2.1h (kept).
    points = np.array([[1.9 * H], [2.1 * H], [0.5], [1.0 - 2.1 * H], [1.0 - 1.9 * H]])
    report = hessian_report(f, points, h=H)
    assert report.skipped.tolist() == [True, False, False, False, True]
    assert np.isnan(report.min_eigenvalues[report.skipped]).all()
    assert np.allclose(report.min_eigenvalues[~report.skipped], 2.0, atol=1e-4)
    assert len(calls) == 3 * 3


def test_report_never_calls_f_within_h_of_the_boundary_2d():
    # The stencil of a point 2h inside the simplex stays h away from both
    # axes; its diagonal offsets move the residual weight by 2h, so that
    # side is only required to stay inside the simplex.
    f, calls = _recording(lambda p: float(p[0] ** 2 + p[1] ** 2),
                          lambda p: min(p[0], p[1]) < H or 1.0 - p.sum() < 0.0)
    points = np.array([
        [1.9 * H, 0.3], [2.1 * H, 0.3],
        [0.3, 1.9 * H], [0.3, 2.1 * H],
        [0.4, 0.6 - 1.9 * H], [0.4, 0.6 - 2.1 * H],
        [0.3, 0.3],
    ])
    report = hessian_report(f, points, h=H)
    assert report.skipped.tolist() == [True, False, True, False, True, False, False]
    assert np.allclose(report.min_eigenvalues[~report.skipped], 2.0, atol=1e-4)
    # One center and eight stencil points per evaluated point.
    assert len(calls) == 4 * 9


def _last_bits(roots, phases):
    return 1e-14 * np.sin(1e3 * phases.sum(axis=-1) + 7.0 * roots.sum(axis=-1))


def test_flags_survive_a_last_bit_perturbation(monkeypatch):
    # The zeta slice has tied argmins (phases that differ by pi at the same
    # value). A 1e-14 perturbation of the objective, in full evaluations and
    # in one-phase probes alike, must not send a point's warm-started
    # stencil onto another branch.
    family = zeta_slice_family()
    exact = ggm_mixed(family, grid_resolution=41)
    values, pencil = _batch.PhaseObjective.values, _batch.PhaseObjective.pencil

    def perturbed(self, roots, phases):
        return values(self, roots, phases) + _last_bits(roots, phases)

    def perturbed_pencil(self, roots, phases, coord):
        probe = pencil(self, roots, phases, coord)

        def shifted(angles):
            # The probed rows: ``phases`` with each angle at ``coord``.
            columns = np.reshape(angles, (len(phases), -1))
            rows = np.repeat(phases[:, None, :], columns.shape[1], axis=1)
            rows[..., coord] = columns
            bits = _last_bits(roots[:, None, :], rows)
            return probe(angles) + bits.reshape(np.shape(angles))
        return shifted

    monkeypatch.setattr(_batch.PhaseObjective, "values", perturbed)
    monkeypatch.setattr(_batch.PhaseObjective, "pencil", perturbed_pencil)
    shifted = ggm_mixed(family, grid_resolution=41)
    interior = np.isfinite(exact.hessian_min_eig)
    assert np.array_equal(interior, np.isfinite(shifted.hessian_min_eig))
    before, after = exact.hessian_min_eig[interior], shifted.hessian_min_eig[interior]
    assert np.array_equal(before < -NONCONVEX_TOL, after < -NONCONVEX_TOL)
    assert np.max(np.abs(after - before)) <= 1e-8
