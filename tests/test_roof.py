import itertools
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import ggm.roof
from ggm import _batch
from ggm.cli import DEFAULT_ALPHA, FIGURES
from ggm.families import (
    ghz_mixture,
    qutrit_sector_family,
    rank2_symmetric,
    rank3_gghz,
    rank3_ghz_dicke,
    rank3_ghz_w,
    rank5_five_qubit,
    zeta_slice_family,
)
from ggm.hilbert import DensityMatrix, PureState, SystemShape
from ggm.pure import ggm_values
from ggm.roof import (
    TwirledFamily,
    closed_form,
    convex_envelope_1d,
    convex_envelope_2d,
    envelope_evaluator_2d,
    ggm_mixed,
    hjw_upper_bound,
    lower_hull_contacts,
    min_phase_ggm,
    min_phase_ggm_many,
    simplex_grid,
)
from ggm.states import dicke, ghz
from ggm.twirl import (
    UnitaryGroup,
    VerificationError,
    _verify_family,
    builtin_group,
)
from helpers import (
    TWO_QUBITS,
    hessian_report,
    seeded_two_qubit_basis,
    swapping_group,
    trivial_group,
    two_qubit_ggm,
)


def rank2_closed(x):
    return 0.5 * (1.0 - 2.0 * math.sqrt(x * (1.0 - x)))


class TestTwirledFamily:
    def test_construction_verifies(self):
        fam = rank2_symmetric(3)
        assert len(fam.basis) == 2
        assert fam.param_names == ("x",)

    def test_param_names_count_checked_without_weight_map(self):
        # no weight_map: the names are the first n_basis - 1 weights
        group = builtin_group("omega", SystemShape((2, 2, 2)))
        basis = (ghz(3), dicke(3, 1), dicke(3, 2))
        with pytest.raises(ValueError, match=r"param_names has 1 name\(s\); a family of "
                                             r"3 basis states without a weight_map takes 2"):
            TwirledFamily(group=group, basis=basis, param_names=("x",))
        fam = TwirledFamily(group=group, basis=basis, param_names=("a", "b"))
        values, _ = min_phase_ggm_many(fam, [[0.3, 0.3]])
        assert values.shape == (1,)

    def test_bad_preimage_rejected(self):
        # GHZ/W mixture is not fixed by the parity group: |GHZ><W| cross
        # terms survive the average over {I, sigma_z^x3}
        shape = SystemShape((2, 2, 2))
        with pytest.raises(ValueError):
            TwirledFamily(
                group=builtin_group("parity", shape),
                basis=(ghz(3), dicke(3, 1)),
            )

    def test_broken_preimage_raises_verification_error(self):
        # the trivial group fixes every mixture but no coherent superposition
        shape = SystemShape((2, 2, 2))
        trivial = UnitaryGroup(shape, [(np.eye(2),) * 3])
        with pytest.raises(VerificationError, match="preimage") as info:
            TwirledFamily(group=trivial, basis=(ghz(3), dicke(3, 1)))
        assert isinstance(info.value, ValueError)

    def test_surviving_cross_term_names_its_pair(self):
        # omega(3) fixes the mixture of GHZ+ and GHZ-, but |000> and |111>
        # share a charge sector, so |GHZ+><GHZ-| survives the twirl
        shape = SystemShape((2, 2, 2))
        minus = np.zeros(8)
        minus[[0, 7]] = [1.0, -1.0]
        basis = (ghz(3), PureState(shape, minus / math.sqrt(2.0)))
        group = builtin_group("omega", shape)
        assert _verify_family(group, basis)[0].ok
        with pytest.raises(VerificationError, match=r"preimage.*basis pair \(0, 1\)"):
            TwirledFamily(group=group, basis=basis)

    def test_family_with_a_zero_reference_weight_rejected(self):
        # the trivial group fixes every mixture of a seeded two-qubit basis
        # but keeps its cross term; a check at the weights (1, 0) alone saw no
        # member carry it, and the envelope at grid 21 lay up to 0.049 below
        # the exact two-qubit value
        basis = seeded_two_qubit_basis()
        with pytest.raises(VerificationError,
                           match=r"preimage.*basis pair \(0, 1\) has character overlap 1\."):
            TwirledFamily(group=trivial_group(TWO_QUBITS), basis=basis)

    def test_group_that_moves_a_basis_state_rejected(self):
        # {I, X(x)X, Z(x)I, ZX(x)X} fixes the mixture of |00> and |11> at
        # (1/2, 1/2), not at x = 0.9: X(x)X swaps the two states
        basis = tuple(PureState(TWO_QUBITS, np.eye(4)[i]) for i in (0, 3))
        with pytest.raises(VerificationError,
                           match=r"does not fix.*element 1 moves basis state 0 off its ray"):
            TwirledFamily(group=swapping_group(), basis=basis)

    @pytest.mark.parametrize("build, grid, edge", [(rank5_five_qubit, 51, 5),
                                                   (zeta_slice_family, 101, 9)])
    def test_boundary_weights_are_exact_zeros(self, build, grid, edge):
        # on x1 + x2 = 1 the residual weight keeps the grid's rounding
        family = build()
        points = simplex_grid(grid, 2)
        unsnapped = family.weight_map(points)
        residue = (unsnapped > 0.0) & (unsnapped < 1e-15)
        assert residue.any(axis=1).sum() == edge
        weights = family.params_to_weights(points)
        assert np.all(weights[residue] == 0.0)
        assert not np.any((weights > 0.0) & (weights < 1e-12))
        assert np.array_equal(weights[~residue], np.clip(unsnapped, 0.0, None)[~residue])

    def test_params_to_weights_default_padding(self):
        fam = rank3_ghz_w()
        w = fam.params_to_weights([0.2, 0.3])
        assert np.allclose(w, [0.2, 0.3, 0.5])

    def test_params_outside_simplex_rejected(self):
        fam = rank3_ghz_w()
        with pytest.raises(ValueError):
            fam.params_to_weights([0.7, 0.7])

    def test_target_at(self):
        fam = rank2_symmetric(3)
        rho = fam.target_at([0.3, 0.7])
        assert isinstance(rho, DensityMatrix)
        assert rho.rank() == 2


class TestMinPhaseGgm:
    def test_rank2_symmetric_value_and_phase(self):
        fam = rank2_symmetric(3)
        value, phases = min_phase_ggm(fam, np.array([0.3, 0.7]))
        assert abs(value - rank2_closed(0.3)) < 1e-9
        assert abs(phases[1]) < 1e-9  # minimum sits at phase 0

    def test_weight_zero_drops_element(self):
        fam = rank3_ghz_w()
        value, phases = min_phase_ggm(fam, np.array([0.0, 1.0, 0.0]))
        assert abs(value - 1 / 3) < 1e-9  # pure W state
        assert np.allclose(phases, 0.0)

    def test_qutrit_argmin_at_zero(self):
        fam = qutrit_sector_family()
        value, phases = min_phase_ggm(fam, np.array([0.4, 0.35, 0.25]))
        assert abs(value - closed_form("qutrit", [0.4, 0.35])) < 1e-6
        assert np.max(np.abs(phases)) < 1e-3

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.2, -0.2, 0.0]],
                             ids=["all zero", "sum 1.5", "negative"])
    def test_rejects_weights_off_the_simplex(self, weights):
        # unchecked, they gave 1.0 (above the ceiling 0.5), 0.0, and 0.4 with
        # the negative weight clipped to 0
        with pytest.raises(ValueError, match="not a probability vector"):
            min_phase_ggm(rank3_ghz_w(), np.array(weights))

    # Infinite entries too: a sum of inf and -inf must not warn (an error
    # under this suite's warning filter) before the ValueError.
    def test_rejects_non_finite_weights(self):
        for weights in ([np.nan, 0.5, 0.5], [np.inf, -np.inf, 1.0], [np.inf, 0.0, 0.0]):
            with pytest.raises(ValueError, match="not a probability vector"):
                min_phase_ggm(rank3_ghz_w(), np.array(weights))

    @pytest.mark.parametrize("build", [rank3_ghz_w, lambda: rank3_gghz(0.55)],
                             ids=["rank3_ghz_w", "rank3_gghz"])
    def test_residue_weights_are_snapped(self, build):
        # as params_to_weights snaps them: the measure grows like the root
        # of a weight, so a residue of 1e-16 would move it by about 1e-8
        fam = build()
        residue, _ = min_phase_ggm(fam, np.array([0.4, 0.6 - 1e-16, 1e-16]))
        exact, _ = min_phase_ggm(fam, np.array([0.4, 0.6, 0.0]))
        assert abs(residue - exact) <= 1e-15

    def test_params_to_weights_rejects_a_nan_point(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="leave the mixing simplex"):
                rank3_ghz_w().params_to_weights([bad, 0.2])

    def test_ggm_mixed_rejects_a_nan_grid_point(self):
        # rejected up front, not in an SVD that does not converge
        for bad in (np.nan, np.inf, -np.inf):
            grid = [[0.2, 0.2], [bad, 0.1], [0.1, 0.1]]
            with pytest.raises(ValueError, match="leave the mixing simplex"):
                ggm_mixed(rank3_ghz_w(), grid)

    @pytest.mark.parametrize("figure", [2, 3, 5, 6, 8])
    def test_builtin_argmin_phases_are_lattice_points(self, figure):
        # Their argmins lie on the seed lattice, and where the objective is
        # flat in a phase the bracket test keeps the seed's; golden section
        # walked such phases to its bracket's edge, up to 2 pi / 32 away.
        family = FIGURES[figure][0](DEFAULT_ALPHA)
        _, phases = min_phase_ggm_many(family, simplex_grid(21, 2))
        steps = phases / (np.pi / 4)
        assert np.max(np.abs(steps - np.rint(steps))) * np.pi / 4 <= 1e-12

    def test_many_matches_single(self):
        fam = rank3_ghz_w()
        params = np.array([[0.2, 0.3], [0.5, 0.1], [0.1, 0.8]])
        values, _ = min_phase_ggm_many(fam, params)
        for row, p in zip(values, params):
            single, _ = min_phase_ggm(fam, fam.params_to_weights(p))
            assert abs(row - single) < 1e-9

    def test_joint_seed_independent_of_the_rows_around_it(self):
        # At figure 7's default grid the edge points (0.96, 0.04) and
        # (0.97, 0.03) give weight_map a last weight of about 3e-17, which
        # params_to_weights snaps to 0. Kept, it makes them share their active
        # pattern, and their seed lattice, with the 4,860 interior points;
        # their seed must still be the one they take alone (min_phase_ggm
        # would snap the weight, so the row is minimized alone directly).
        fam = zeta_slice_family()
        grid = simplex_grid(101, 2)
        weights = fam.params_to_weights(grid)
        rows = [np.flatnonzero(np.all(np.abs(grid - point) < 1e-12, axis=1))[0]
                for point in ([0.96, 0.04], [0.97, 0.03])]
        weights[rows] = fam.weight_map(grid[rows])
        values, phases = _batch.minimize_phases(fam.objective, weights)
        for row in rows:
            assert 0.0 < weights[row, -1] < 1e-16
            single, single_phases = _batch.minimize_phases(fam.objective, weights[row][None])
            assert values[row] == single[0]
            assert np.array_equal(phases[row], single_phases[0])


class TestHessianReport:
    def test_quadratic_bowl(self):
        def f(x):
            return float(x[0] ** 2 + x[1] ** 2)

        pts = np.array([[0.3, 0.3], [0.2, 0.5], [0.4, 0.1]])
        report = hessian_report(f, pts)
        assert not report.skipped.any()
        assert np.allclose(report.min_eigenvalues, 2.0, atol=1e-4)
        assert not report.flagged.any()

    def test_saddle_flagged(self):
        def f(x):
            return float(x[0] ** 2 - x[1] ** 2)

        report = hessian_report(f, np.array([[0.3, 0.3]]))
        assert report.flagged.any()
        assert report.min_eigenvalues[0] < -1.0

    def test_boundary_points_skipped(self):
        def f(x):
            return float(x.sum())

        report = hessian_report(f, np.array([[0.0005, 0.3], [0.3, 0.3]]), h=1e-3)
        assert report.skipped[0]
        assert not report.skipped[1]
        assert np.isnan(report.min_eigenvalues[0])

    def test_1d(self):
        report = hessian_report(lambda x: float((x[0] - 0.5) ** 2), np.array([[0.4]]))
        assert abs(report.min_eigenvalues[0] - 2.0) < 1e-4


class TestConvexEnvelope1d:
    def test_convex_input_unchanged(self):
        t = np.linspace(0.0, 1.0, 41)
        v = (t - 0.5) ** 2
        assert np.allclose(convex_envelope_1d(t, v), v, atol=1e-12)

    def test_tent_flattens(self):
        t = np.array([0.0, 0.5, 1.0])
        v = np.array([0.0, 1.0, 0.0])
        assert np.allclose(convex_envelope_1d(t, v), 0.0)

    def test_envelope_below_and_convex(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 1.0, 101)
        v = np.abs(np.sin(6 * t)) + 0.05 * rng.standard_normal(101)
        env = convex_envelope_1d(t, v)
        assert (env <= v + 1e-12).all()
        second = np.diff(env, 2)
        assert (second >= -1e-9).all()

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            convex_envelope_1d(np.array([0.5]), np.array([1.0]))

    def test_non_increasing_abscissae_rejected(self):
        with pytest.raises(ValueError):
            convex_envelope_1d(np.array([0.0, 0.0, 1.0]), np.zeros(3))


class TestConvexEnvelope2d:
    def test_linear_function_unchanged(self):
        grid = simplex_grid(21, 2)
        v = 0.3 + 0.5 * grid[:, 0] - 0.2 * grid[:, 1]
        assert np.allclose(convex_envelope_2d(grid, v), v, atol=1e-12)

    def test_bump_removed(self):
        grid = simplex_grid(31, 2)
        dist = (grid[:, 0] - 0.25) ** 2 + (grid[:, 1] - 0.25) ** 2
        v = np.exp(-60 * dist)  # concave bump over a flat floor
        env = convex_envelope_2d(grid, v)
        interior = (grid[:, 0] > 0.1) & (grid[:, 1] > 0.1) & (grid.sum(axis=1) < 0.9)
        assert np.max(v[interior] - env[interior]) > 0.5

    def test_envelope_below_raw(self):
        rng = np.random.default_rng(8)
        grid = simplex_grid(21, 2)
        v = rng.random(grid.shape[0])
        env = convex_envelope_2d(grid, v)
        assert (env <= v + 1e-12).all()

    def test_collinear_grid_rejected(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 1, 10)])
        with pytest.raises(ValueError):
            convex_envelope_2d(pts, np.ones(10))

    def test_row_blocks_bit_identical_to_one_block(self, monkeypatch):
        # The evaluator works in row blocks of about _BLOCK_ENTRIES plane
        # values. A one-row block is padded: BLAS's matrix-vector path,
        # which numpy would take for it, rounds differently.
        grid = simplex_grid(31, 2)
        v = np.cos(7.0 * grid[:, 0]) * np.sin(5.0 * grid[:, 1]) + grid[:, 0] ** 2
        lifted = ConvexHull(np.column_stack([grid, v]))
        faces = int(np.sum(lifted.equations[:, 2] < -1e-12))
        query = np.random.default_rng(3).dirichlet(np.ones(3), size=10 * 7 + 1)[:, :2]
        evaluate = envelope_evaluator_2d(grid, v)
        monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", faces * query.shape[0])
        whole = evaluate(query)
        # blocks of 7 rows with a last block of one row, then one-row blocks
        for entries in (faces * 7, 1):
            monkeypatch.setattr(_batch, "_BLOCK_ENTRIES", entries)
            assert np.array_equal(evaluate(query), whole)
        assert np.array_equal(evaluate(query[:1]), whole[:1])
        assert np.array_equal(evaluate(query[-1]), whole[-1:])

    @pytest.mark.parametrize("case", ["gghz", "zeta_slice", "random_cloud"])
    def test_samples_on_the_hull_keep_their_value(self, case):
        # Vertices of a lower hull face lie on the envelope and keep raw; the
        # face planes are evaluated only at the other samples.
        if case == "random_cloud":
            rng = np.random.default_rng(21)
            grid = rng.dirichlet(np.ones(3), size=300)[:, :2]
            raw = rng.random(grid.shape[0]) + grid[:, 0] ** 2
        else:
            family = rank3_gghz(0.55) if case == "gghz" else zeta_slice_family()
            surface = ggm_mixed(family, grid_resolution=61)
            grid, raw = surface.grid, surface.raw
        lifted = ConvexHull(np.column_stack([grid, raw]))
        vertices = np.zeros(grid.shape[0], dtype=bool)
        vertices[lifted.simplices[lifted.equations[:, 2] < -1e-12]] = True
        assert vertices.any() and not vertices.all()
        env = convex_envelope_2d(grid, raw)
        assert np.array_equal(env[vertices], raw[vertices])
        planes = np.minimum(envelope_evaluator_2d(grid, raw)(grid), raw)
        assert np.array_equal(env[~vertices], planes[~vertices])

    def test_midpoint_convexity_on_lattice(self):
        fam = rank3_gghz(0.55)
        surface = ggm_mixed(fam, grid_resolution=41)
        step = 1.0 / 40
        env = {tuple(np.round(p / step).astype(int)): e
               for p, e in zip(surface.grid, surface.envelope)}
        violations = 0
        for (i, j), val in env.items():
            for di, dj in ((1, 0), (0, 1), (1, -1), (1, 1)):
                lo = env.get((i - di, j - dj))
                hi = env.get((i + di, j + dj))
                if lo is not None and hi is not None:
                    violations += val > 0.5 * (lo + hi) + 1e-9
        assert violations == 0


class TestSimplexGrid:
    def test_1d(self):
        grid = simplex_grid(11, 1)
        assert grid.shape == (11, 1)
        assert grid[0, 0] == 0.0 and grid[-1, 0] == 1.0

    def test_2d_lexicographic_and_inside(self):
        grid = simplex_grid(21, 2)
        assert (grid.sum(axis=1) <= 1.0 + 1e-12).all()
        order = np.lexsort((grid[:, 1], grid[:, 0]))
        assert np.array_equal(order, np.arange(grid.shape[0]))


class TestGgmMixed:
    def test_rank2_matches_closed_form(self):
        surface = ggm_mixed(rank2_symmetric(3), grid_resolution=51)
        expected = np.array([rank2_closed(x) for x in surface.grid[:, 0]])
        assert np.max(np.abs(surface.envelope - expected)) < 2e-4
        assert (surface.envelope <= surface.raw + 1e-12).all()

    def test_hessian_column_filled_on_interior(self):
        surface = ggm_mixed(rank2_symmetric(3), grid_resolution=51)
        interior = (surface.grid[:, 0] > 0.01) & (surface.grid[:, 0] < 0.99)
        assert np.isfinite(surface.hessian_min_eig[interior]).all()
        assert np.isnan(surface.hessian_min_eig[0])

    def test_csv_roundtrip(self):
        surface = ggm_mixed(rank2_symmetric(3), grid_resolution=21)
        text = surface.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "x,raw,envelope,hessian_min_eig,phase_1,phase_2"
        assert len(lines) == 22

    def test_envelope_at_interpolates(self):
        surface = ggm_mixed(rank2_symmetric(3), grid_resolution=51)
        q = np.array([[0.305]])
        direct = rank2_closed(0.305)
        assert abs(surface.envelope_at(q)[0] - direct) < 1e-3

    def test_envelope_at_rejects_points_off_the_simplex(self):
        # the hull's planes extrapolate past the simplex, and np.interp clamps
        plane = ggm_mixed(rank3_ghz_w(), grid_resolution=9)
        line = ggm_mixed(rank2_symmetric(3), grid_resolution=21)
        for surface, point in ((plane, [0.8, 0.5]), (plane, [-0.1, 0.5]),
                               (line, [1.7]), (line, [-3.0])):
            with pytest.raises(ValueError, match="leave the parameter simplex"):
                surface.envelope_at(point)
        ends = line.envelope_at([[0.0], [1.0]])  # the simplex is closed
        assert np.max(np.abs(ends - line.envelope[[0, -1]])) <= 1e-12

    def test_envelope_at_rejects_non_finite_points(self):
        surface = ggm_mixed(rank3_ghz_w(), grid_resolution=9)
        for point in ([np.nan, 0.2], [np.inf, -np.inf], [-np.inf, 0.2]):
            with pytest.raises(ValueError, match="leave the parameter simplex"):
                surface.envelope_at(point)

    def test_envelope_at_rejects_another_arity(self):
        surface = ggm_mixed(rank3_ghz_w(), grid_resolution=9)
        for query in ([[0.3]], [[0.2, 0.3, 0.1]]):
            with pytest.raises(ValueError, match="expected 2 parameters, got"):
                surface.envelope_at(query)

    @pytest.mark.parametrize("build", [rank2_symmetric, ghz_mixture])
    def test_two_qubit_families_match_the_concurrence(self, build):
        # an independent reference: the measure of any two-qubit state from
        # Wootters' concurrence, at every point of the grid
        family = build(2)
        surface = ggm_mixed(family, grid_resolution=21)
        exact = [two_qubit_ggm(family.target_at(w).entries) for w in surface.weights]
        assert np.max(np.abs(surface.envelope - exact)) <= 1e-7

    def test_grid_arity_checked(self):
        with pytest.raises(ValueError):
            ggm_mixed(rank2_symmetric(3), grid=np.zeros((5, 2)))

    def test_three_parameter_family_rejected_with_pointer(self):
        from ggm.families import ghz_dicke_mixture
        with pytest.raises(ValueError, match="min_phase_ggm_many"):
            ggm_mixed(ghz_dicke_mixture(4), grid_resolution=11)

    def test_three_parameter_raw_values_still_available(self):
        from ggm.families import ghz_dicke_mixture
        fam = ghz_dicke_mixture(4)
        values, phases = min_phase_ggm_many(
            fam, np.array([[0.2, 0.3, 0.2], [0.1, 0.1, 0.1]]))
        assert values.shape == (2,)
        assert (values >= 0).all() and (values <= 0.5 + 1e-9).all()


class TestClosedForms:
    def test_rank2_endpoints(self):
        assert closed_form("rank2_sym", [0.5]) == 0.0
        assert abs(closed_form("rank2_sym", [0.0]) - 0.5) < 1e-15

    def test_rank3_corners(self):
        assert abs(closed_form("rank3_ghz_w", [1.0, 0.0]) - 0.5) < 1e-9
        assert abs(closed_form("rank3_ghz_w", [0.0, 1.0]) - 1 / 3) < 1e-9
        assert abs(closed_form("rank3_ghz_w", [0.0, 0.0]) - 1 / 3) < 1e-9

    def test_rank5_corner(self):
        assert abs(closed_form("rank5_5qubit", [1.0, 0.0]) - 0.5) < 1e-12

    def test_qutrit_center_and_corner(self):
        assert abs(closed_form("qutrit", [1 / 3, 1 / 3])) < 1e-12
        assert abs(closed_form("qutrit", [1.0, 0.0]) - 2 / 3) < 1e-12

    def test_outside_simplex_rejected(self):
        with pytest.raises(ValueError):
            closed_form("rank3_ghz_w", [0.8, 0.5])
        with pytest.raises(ValueError):
            closed_form("rank2_sym", [-0.1])

    @pytest.mark.parametrize("form_id, params", [("rank3_ghz_w", [np.nan, 0.2]),
                                                 ("rank2_sym", [np.nan])])
    def test_non_finite_parameters_rejected(self, form_id, params):
        with pytest.raises(ValueError, match="outside the closed simplex"):
            closed_form(form_id, params)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            closed_form("rank7", [0.1])

    @pytest.mark.parametrize("figure, form_id", [(2, "rank3_ghz_w"), (6, "rank5_5qubit"),
                                                 (8, "qutrit")])
    def test_raw_at_every_default_grid_point(self, figure, form_id):
        # On the hypotenuse a residual weight 1 - x1 - x2 of a few 1e-17
        # must be snapped to 0 as raw's is: unsnapped, it moves a closed form
        # by up to 9.9e-9 (measured <= 7.8e-16 snapped).
        build, resolution = FIGURES[figure]
        grid = simplex_grid(resolution, 2)
        raw, _ = min_phase_ggm_many(build(None), grid)
        expected = np.array([closed_form(form_id, point) for point in grid])
        assert np.max(np.abs(raw - expected)) <= 1e-12


class TestWeightSimplexSymmetries:
    """raw is invariant under the maps of the weight simplex that a local
    unitary permuting the basis up to phases induces (X on every qubit swaps
    D^k with D^(N-k); on qutrits the digit shift cycles the sectors and
    j -> -j reverses them): measured <= 6.7e-16 at grid 21."""

    RESOLUTION = 21

    @classmethod
    def images(cls, perm):
        """Index of each point of the grid after permuting its weight
        vector (x1, x2, 1 - x1 - x2) by ``perm``."""
        last = cls.RESOLUTION - 1
        ticks = np.rint(simplex_grid(last + 1, 2) * last).astype(int)
        full = np.column_stack([ticks, last - ticks.sum(axis=1)])
        index = {point: k for k, point in enumerate(map(tuple, ticks.tolist()))}
        return np.array([index[tuple(point[:2])] for point in full[:, list(perm)].tolist()])

    @pytest.mark.parametrize("build, perms", [
        (rank3_ghz_w, [(0, 2, 1)]),
        (lambda: rank3_ghz_dicke(5), [(0, 2, 1)]),
        (rank5_five_qubit, [(0, 2, 1)]),
        (zeta_slice_family, [(2, 1, 0)]),
        (qutrit_sector_family, list(itertools.permutations(range(3)))),
    ], ids=["figure 2: x2 <-> 1-x1-x2", "figure 5: x2 <-> 1-x1-x2",
            "figure 6: x2 <-> 1-x1-x2", "figure 7: x <-> 1-x-y", "figure 8: every permutation"])
    def test_raw_is_invariant(self, build, perms):
        raw, _ = min_phase_ggm_many(build(), simplex_grid(self.RESOLUTION, 2))
        for perm in perms:
            assert np.max(np.abs(raw[self.images(perm)] - raw)) <= 1e-12


class TestHjwUpperBound:
    def test_pure_state_gives_its_own_value(self):
        rho = dicke(3, 1).projector()
        for m in (1, 3):
            val = hjw_upper_bound(rho, m, 50, seed=9)
            assert abs(val - 1 / 3) < 1e-9

    def test_rank2_bound_above_closed_form(self):
        fam = rank2_symmetric(3)
        rho = fam.target_at([0.3, 0.7])
        val = hjw_upper_bound(rho, 4, 2000, seed=7)
        assert val >= rank2_closed(0.3) - 1e-9
        assert val - rank2_closed(0.3) < 0.05

    def test_separable_state_approaches_zero(self):
        shape = SystemShape((2, 2, 2))
        basis0 = np.zeros((2, 2))
        basis0[0, 0] = 1.0
        rho = DensityMatrix(shape, np.kron(np.eye(4) / 4, basis0).astype(complex))
        val = hjw_upper_bound(rho, 6, 5000, seed=3)
        assert val <= 0.02

    def test_m_below_rank_rejected(self):
        rho = rank2_symmetric(3).target_at([0.4, 0.6])
        with pytest.raises(ValueError):
            hjw_upper_bound(rho, 1, 10, seed=1)

    def test_deterministic(self):
        rho = rank2_symmetric(3).target_at([0.25, 0.75])
        a = hjw_upper_bound(rho, 4, 500, seed=11)
        b = hjw_upper_bound(rho, 4, 500, seed=11)
        assert a == b


def reference_isometries(samples, m, rank, seed):
    """The sampler's isometries drawn one sample at a time."""
    rng = np.random.default_rng(seed)
    yield np.eye(m, rank, dtype=complex)
    for _ in range(samples - 1):
        gauss = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        q, r = np.linalg.qr(gauss)
        diag = np.diagonal(r)
        yield q * (diag / np.abs(diag))


def reference_hjw_upper_bound(rho, m, samples, seed):
    """The sampler with one QR per sample and the full-amplitude gather
    kernel over every member row."""
    eigvals, eigvecs = np.linalg.eigh(rho.entries)
    keep = eigvals > 1e-12
    lam, vecs = eigvals[keep], eigvecs[:, keep]
    weighted = vecs * np.sqrt(lam)  # columns sqrt(lam_i)|e_i>
    members, probs = [], []
    for iso in reference_isometries(samples, m, lam.size, seed):
        unnorm = weighted @ iso.conj().T  # (dim, m)
        p = np.sum(np.abs(unnorm) ** 2, axis=0)
        live = p > 1e-14
        members.append(unnorm[:, live].T / np.sqrt(p[live])[:, None])
        probs.append(p[live])
    vals = ggm_values(np.concatenate(members, axis=0), rho.shape)
    best, pos = math.inf, 0
    for p in probs:
        best = min(best, float(p @ vals[pos:pos + p.size]))
        pos += p.size
    return max(best, 0.0)


def _separable_rho():
    basis0 = np.zeros((2, 2))
    basis0[0, 0] = 1.0
    return DensityMatrix(SystemShape((2, 2, 2)),
                         np.kron(np.eye(4) / 4, basis0).astype(complex))


def _family_target(family, params):
    return family.target_at(family.params_to_weights(params))


def _random_rank_state(dims, rank, seed):
    """G G^dag / tr(G G^dag) for a complex Gaussian (D, rank) matrix G."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((math.prod(dims), rank)) \
        + 1j * rng.standard_normal((math.prod(dims), rank))
    rho = gauss @ gauss.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(SystemShape(dims), rho / np.trace(rho).real)


class TestSamplerAgainstReference:
    TARGETS = {
        "rank5": lambda: _family_target(rank5_five_qubit(), [0.3, 0.25]),
        "qutrit": lambda: _family_target(qutrit_sector_family(), [0.2, 0.45]),
        "rank2_symmetric": lambda: rank2_symmetric(3).target_at([0.3, 0.7]),
        # an eigenbasis fixed by party swaps (test_swap_symmetric_eigenbasis),
        # so the sampler evaluates one cut per orbit
        "rank3_ghz_dicke5": lambda: _family_target(rank3_ghz_dicke(5), [0.3, 0.3]),
        "separable": _separable_rho,
        "dicke31": lambda: dicke(3, 1).projector(),
        # rank above _batch._TABLE_MAX_BASIS: the pure kernel on the members
        "rank12_4qubit": lambda: _random_rank_state((2,) * 4, 12, seed=12),
    }

    @pytest.mark.parametrize("seed", [7, 2024])
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_bound_matches_reference(self, target, seed):
        rho = self.TARGETS[target]()
        m = rho.rank() + 2
        bound = hjw_upper_bound(rho, m, 400, seed)
        assert abs(bound - reference_hjw_upper_bound(rho, m, 400, seed)) < 1e-12

    def test_rank_above_the_table_cutoff(self, monkeypatch):
        rho = self.TARGETS["rank12_4qubit"]()
        assert rho.rank() == 12 > _batch._TABLE_MAX_BASIS
        # the sampler reads the members' amplitudes by pure.ggm_values, so it
        # builds no Gram table
        built, read = [], []
        tables, values = _batch._gram_tables, ggm.pure.ggm_values
        monkeypatch.setattr(_batch, "_gram_tables",
                            lambda *args: built.append(1) or tables(*args))
        monkeypatch.setattr(ggm.pure, "ggm_values",
                            lambda rows, shape: read.append(len(rows)) or values(rows, shape))
        hjw_upper_bound(rho, 14, 50, 7)
        assert built == []
        # the eigendecomposition's 12 members, then 14 per sampled isometry
        assert sum(read) == 12 + 49 * 14

    def test_swap_symmetric_eigenbasis(self):
        rho = self.TARGETS["rank3_ghz_dicke5"]()
        eigvals, eigvecs = np.linalg.eigh(rho.entries)
        basis = eigvecs[:, eigvals > 1e-12].T
        assert _batch.fixing_transpositions(basis, rho.shape.dims)
        assert len(_batch.PhaseObjective(basis, rho.shape.dims).masks) < 15

    @pytest.mark.parametrize("m, rank", [(7, 5), (3, 3), (4, 1)])
    def test_isometries_bit_identical_to_per_sample_draws(self, m, rank):
        rng = np.random.default_rng(m * rank)
        batched = np.concatenate([np.eye(m, rank, dtype=complex)[None]] + [
            ggm.roof._haar_isometries(rng, count, m, rank) for count in (1, 120, 178)])
        expected = np.stack(list(reference_isometries(300, m, rank, seed=m * rank)))
        assert np.array_equal(batched, expected)

    def test_bound_independent_of_draw_blocks(self, monkeypatch):
        rho = _family_target(rank5_five_qubit(), [0.3, 0.25])
        bounds = []
        for entries in (1 << 8, 1 << 16):
            monkeypatch.setattr(ggm._batch, "_BLOCK_ENTRIES", entries)
            bounds.append(hjw_upper_bound(rho, 7, 300, seed=3))
        assert bounds[0] == bounds[1]

    def test_rank12_bound_independent_of_member_blocks(self, monkeypatch):
        # above the table cutoff the members' amplitudes are formed in blocks
        # of about _BLOCK_ENTRIES entries: 16 rows at 2^8, 4,096 at 2^16
        rho = self.TARGETS["rank12_4qubit"]()
        bounds = []
        for entries in (1 << 8, 1 << 16):
            monkeypatch.setattr(ggm._batch, "_BLOCK_ENTRIES", entries)
            bounds.append(hjw_upper_bound(rho, 14, 300, seed=3))
        assert bounds[0] == bounds[1]


class TestPipelineAgainstDecompositionBound:
    @pytest.mark.parametrize("builder,params", [
        (rank2_symmetric, [0.35]),
        (rank3_ghz_w, [0.4, 0.3]),
        (ghz_mixture, [0.6]),
    ])
    def test_envelope_never_exceeds_sampled_roof(self, builder, params):
        fam = builder()
        raw, _ = min_phase_ggm_many(fam, np.array([params]))
        weights = fam.params_to_weights(params)
        bound = hjw_upper_bound(fam.target_at(weights), len(fam.basis) + 2, 800, seed=5)
        # envelope <= raw, so raw already bounds it from above
        assert bound >= min(raw[0], bound) - 1e-9
        assert raw[0] <= bound + 0.05


class TestMinimizationSandwich:
    @pytest.mark.parametrize("builder", [rank3_ghz_w, zeta_slice_family,
                                         qutrit_sector_family])
    def test_envelope_below_raw_below_any_phase(self, builder):
        from ggm.pure import ggm_pure
        from ggm.states import superpose

        fam = builder()
        surface = ggm_mixed(fam, grid_resolution=21)
        assert (surface.envelope <= surface.raw + 1e-12).all()
        rng = np.random.default_rng(44)
        for idx in rng.choice(surface.grid.shape[0], size=5, replace=False):
            weights = surface.weights[idx]
            phases = np.zeros(len(fam.basis))
            phases[1:] = rng.uniform(0, 2 * np.pi, len(fam.basis) - 1)
            sampled = ggm_pure(superpose(fam.basis, weights, phases)).value
            assert surface.raw[idx] <= sampled + 1e-9


class TestCase2Slices:
    def test_nonconvex_stretch_is_linearized(self):
        fam = rank3_gghz(0.55)
        xs = np.linspace(0.0, 1.0, 201)
        r = 0.96
        params = np.column_stack([xs, r * (1.0 - xs)])
        raw, _ = min_phase_ggm_many(fam, params)
        env = convex_envelope_1d(xs, raw)
        contacts = lower_hull_contacts(xs, raw)
        assert np.max(raw - env) > 1e-4
        assert np.max(np.diff(contacts)) >= 8  # a real linear segment
