"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Expensive surfaces are shared through module-scoped fixtures so the whole
suite stays laptop-friendly.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ggm.cli import main as cli_main
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
from ggm.roof import (
    closed_form,
    convex_envelope_1d,
    ggm_mixed,
    hjw_upper_bound,
    lower_hull_contacts,
    min_phase_ggm,
    min_phase_ggm_many,
    simplex_grid,
)
from ggm.states import dicke, gghz, ghz, superpose, uniform_sector_state, zeta
from ggm.twirl import builtin_group, verify_preimage
from ggm.hilbert import SystemShape
from ggm.pure import ggm_pure
from helpers import dense_twirl


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def wrap_angle(a):
    return (np.asarray(a) + np.pi) % (2 * np.pi) - np.pi


def interior_simplex_points(rng, arity, count, margin=0.02):
    points = []
    while len(points) < count:
        w = rng.dirichlet(np.ones(arity + 1))
        if w.min() >= margin:
            points.append(w[:arity])
    return np.array(points)


@pytest.fixture(scope="module")
def case2_surface():
    start = time.monotonic()
    surface = ggm_mixed(rank3_gghz(0.55))  # default 101 per axis
    return surface, time.monotonic() - start


@pytest.fixture(scope="module")
def rank5_surface():
    return ggm_mixed(rank5_five_qubit(), grid_resolution=51)


@pytest.fixture(scope="module")
def qutrit_surface():
    return ggm_mixed(qutrit_sector_family(), grid_resolution=51)


def test_criterion_1_pure_ggm_correctness():
    with criterion(1, "pure-state values for GHZ, Dicke, and gGHZ families"):
        start = time.monotonic()
        for n in range(2, 9):
            assert abs(ggm_pure(ghz(n)).value - 0.5) <= 1e-9
        for n in range(3, 9):
            assert abs(ggm_pure(dicke(n, 1)).value - 1.0 / n) <= 1e-9
        for n in (3, 5, 8):
            for alpha in np.linspace(0.0, 1.0, 11):
                expected = min(alpha**2, 1.0 - alpha**2)
                assert abs(ggm_pure(gghz(n, alpha)).value - expected) <= 1e-9
        assert time.monotonic() - start < 10.0


def test_criterion_2_rank2_closed_form_n_independent():
    with criterion(2, "rank-2 symmetric pipeline matches the closed form, N=3..6"):
        start = time.monotonic()
        grid = simplex_grid(201, 1)
        expected = np.array(
            [closed_form("rank2_sym", [x]) for x in grid[:, 0]])
        envelopes = {}
        for n in (3, 4, 5, 6):
            surface = ggm_mixed(rank2_symmetric(n), grid=grid)
            assert np.max(np.abs(surface.envelope - expected)) <= 2e-4
            envelopes[n] = surface.envelope
        for n in (4, 5, 6):  # N-independence of the pipeline output
            assert np.max(np.abs(envelopes[n] - envelopes[3])) <= 1e-6
        assert time.monotonic() - start < 120.0


def test_criterion_3_rank3_corners_and_agreement():
    with criterion(3, "rank-3 GHZ/W closed form: corners, agreement, convexity"):
        assert abs(closed_form("rank3_ghz_w", [1.0, 0.0]) - 0.5) <= 1e-9
        assert abs(closed_form("rank3_ghz_w", [0.0, 1.0]) - 1 / 3) <= 1e-9
        assert abs(closed_form("rank3_ghz_w", [0.0, 0.0]) - 1 / 3) <= 1e-9
        fam = rank3_ghz_w()
        rng = np.random.default_rng(2024)
        points = interior_simplex_points(rng, 2, 50)
        raw, _ = min_phase_ggm_many(fam, points)
        expected = np.array([closed_form("rank3_ghz_w", p) for p in points])
        worst = float(np.max(np.abs(raw - expected)))
        # the pipeline is ground truth; report the printed-form discrepancy
        print(f"  (max |pipeline - printed form| = {worst:.2e})")
        assert worst <= 5e-4
        surface = ggm_mixed(fam, grid_resolution=41)
        finite = np.isfinite(surface.hessian_min_eig)
        assert (surface.hessian_min_eig[finite] >= -1e-6).all()


def test_criterion_4_case2_nonconvexity(case2_surface):
    with criterion(4, "gGHZ(0.55) mixture: nonconvex region found and convexified"):
        start = time.monotonic()
        surface, build_seconds = case2_surface
        x1, x2 = surface.grid[:, 0], surface.grid[:, 1]
        region = (x1 > 0.8) & (x2 < 0.1) & np.isfinite(surface.hessian_min_eig)
        assert region.any()
        assert (surface.hessian_min_eig[region] < -1e-6).any()
        assert np.max((surface.raw - surface.envelope)[region]) > 1e-4

        fam = rank3_gghz(0.55)
        xs = np.linspace(0.0, 1.0, 201)
        for r in (0.96, 0.98):
            params = np.column_stack([xs, r * (1.0 - xs)])
            raw, _ = min_phase_ggm_many(fam, params)
            envelope = convex_envelope_1d(xs, raw)
            contacts = lower_hull_contacts(xs, raw)
            assert np.max(np.diff(contacts)) >= 8  # maximal linear segment
            assert np.max(raw - envelope) > 1e-4
        assert build_seconds + (time.monotonic() - start) < 300.0


def test_criterion_5_rank5_convex_everywhere(rank5_surface):
    with criterion(5, "five-qubit rank-5 mixture: convex and matches closed form"):
        surface = rank5_surface
        finite = np.isfinite(surface.hessian_min_eig)
        assert (surface.hessian_min_eig[finite] >= -1e-6).all()

        fam = rank5_five_qubit()
        rng = np.random.default_rng(55)
        points = interior_simplex_points(rng, 2, 50)
        raw, _ = min_phase_ggm_many(fam, points)
        expected = np.array([closed_form("rank5_5qubit", p) for p in points])
        assert np.max(np.abs(raw - expected)) <= 5e-4

        corner = np.flatnonzero(
            (surface.grid[:, 0] == 1.0) & (surface.grid[:, 1] == 0.0))
        assert corner.size == 1
        assert abs(surface.raw[corner[0]] - 0.5) <= 5e-4


def test_criterion_6_qutrit_family(qutrit_surface):
    with criterion(6, "three-qutrit sector mixture matches its closed form"):
        surface = qutrit_surface
        expected = np.array([closed_form("qutrit", p) for p in surface.grid])
        assert np.max(np.abs(surface.raw - expected)) <= 5e-4
        assert np.max(np.abs(surface.envelope - expected)) <= 5e-4

        fam = qutrit_sector_family()
        center, _ = min_phase_ggm(fam, np.array([1 / 3, 1 / 3, 1 / 3]))
        assert abs(center) <= 1e-6
        corners, _ = min_phase_ggm_many(
            fam, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert np.max(np.abs(corners - 2 / 3)) <= 1e-6


def test_criterion_7_group_verification():
    with criterion(7, "built-in groups: axioms, sector annihilation, preimage"):
        # construction enforces closure, identity, and inverse up to phase
        parity = builtin_group("parity", SystemShape((2, 2, 2, 2)))
        omega = builtin_group("omega", SystemShape((2,) * 5))
        zeta_group = builtin_group("zeta", SystemShape((2, 2, 2)))
        qudit = builtin_group("qudit", SystemShape((3, 3, 3)))
        assert (parity.order, omega.order, zeta_group.order, qudit.order) \
            == (2, 5, 4, 3)

        for q, r in [(0, 1), (1, 2), (0, 4)]:
            cross = np.outer(dicke(5, q).amplitudes, dicke(5, r).amplitudes.conj())
            assert np.max(np.abs(dense_twirl(omega, cross))) < 1e-12
        shape3 = SystemShape((3, 3, 3))
        for q, r in [(0, 1), (1, 2), (0, 2)]:
            a = uniform_sector_state(shape3, 3, q).amplitudes
            b = uniform_sector_state(shape3, 3, r).amplitudes
            assert np.max(np.abs(dense_twirl(qudit, np.outer(a, b.conj())))) < 1e-12

        basis = [zeta(i) for i in range(1, 5)]
        ok, dev = verify_preimage(zeta_group, basis)
        assert ok and dev <= 1e-9


def test_criterion_8_zeta_argmin_phases():
    """Minimizing phases of the zeta slice match the published argmin.

    The published minimum (phases -pi/2, +pi/2, 0 on the second, third, and
    fourth basis states) is degenerate: rephasing the two equally weighted
    middle states together is an exact symmetry of the measure here, and
    acting with a fixing-group element maps minimizers to minimizers, which
    sends that argmin line onto (0, 0, pi). Matching is therefore checked in
    the gauge-invariant coordinates (phi3 - phi2, phi4): the returned phases
    must lie on the published line or its group image, and the returned
    minimum must equal the value at the published phases.
    """
    with criterion(8, "zeta-family argmin phases on the x2=x3 slice"):
        fam = zeta_slice_family()
        slice_points = [(0.5, 0.3), (0.6, 0.2), (0.7, 0.15), (0.45, 0.35),
                        (0.55, 0.25), (0.65, 0.25), (0.5, 0.4), (0.75, 0.1),
                        (0.4, 0.3), (0.6, 0.3)]
        for x, y in slice_points:
            weights = fam.params_to_weights([x, y])
            value, phases = min_phase_ggm(fam, weights)
            published = ggm_pure(superpose(
                fam.basis, weights, [0.0, -np.pi / 2, np.pi / 2, 0.0])).value
            assert abs(value - published) <= 1e-6
            diff = wrap_angle(phases[2] - phases[1])
            last = wrap_angle(phases[3])
            on_published_line = (abs(wrap_angle(diff - np.pi)) <= 1e-2
                                 and abs(last) <= 1e-2)
            on_group_image = (abs(diff) <= 1e-2
                              and abs(wrap_angle(last - np.pi)) <= 1e-2)
            assert on_published_line or on_group_image


FAMILIES_FOR_ROOF_BOUND = [
    ("rank2_symmetric", rank2_symmetric, 201),
    ("rank3_ghz_w", rank3_ghz_w, 41),
    ("rank3_gghz", lambda: rank3_gghz(0.55), None),      # reuses fixture
    ("rank3_ghz_dicke", lambda: rank3_ghz_dicke(5), 41),
    ("rank5_five_qubit", rank5_five_qubit, None),        # reuses fixture
    ("zeta_slice_family", zeta_slice_family, 41),
    ("qutrit_sector_family", qutrit_sector_family, None),  # reuses fixture
    ("ghz_mixture", ghz_mixture, 201),
]


def test_criterion_9_roof_bound_consistency(case2_surface, rank5_surface,
                                            qutrit_surface):
    with criterion(9, "decomposition bound dominates the envelope everywhere"):
        reused = {"rank3_gghz": case2_surface[0],
                  "rank5_five_qubit": rank5_surface,
                  "qutrit_sector_family": qutrit_surface}
        rng = np.random.default_rng(909)
        for name, builder, resolution in FAMILIES_FOR_ROOF_BOUND:
            fam = builder()
            surface = reused.get(name)
            if surface is None:
                surface = ggm_mixed(fam, grid_resolution=resolution)
            arity = len(fam.param_names)
            points = interior_simplex_points(rng, arity, 10)
            envelope = surface.envelope_at(points)
            for point, env in zip(points, envelope):
                target = fam.target_at(fam.params_to_weights(point))
                bound = hjw_upper_bound(target, target.rank() + 2, 2000, seed=4242)
                assert bound >= env - 1e-9, (name, point, bound, env)
                if name == "rank2_symmetric":
                    assert bound - env < 0.05


def test_criterion_10_ghz_mixture_note():
    with criterion(10, "GHZ+/GHZ- mixture reproduces the rank-2 closed form"):
        grid = simplex_grid(51, 1)
        expected = np.array([closed_form("rank2_sym", [x]) for x in grid[:, 0]])
        for n in (3, 5):
            surface = ggm_mixed(ghz_mixture(n), grid=grid)
            assert np.max(np.abs(surface.envelope - expected)) <= 2e-4


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "identical seeds and configs reproduce identical output"):
        fam = rank2_symmetric(3)
        grid = simplex_grid(51, 1)
        surf_a = ggm_mixed(fam, grid=grid)
        surf_b = ggm_mixed(fam, grid=grid)
        assert np.array_equal(surf_a.raw, surf_b.raw)
        assert np.array_equal(surf_a.envelope, surf_b.envelope)
        assert np.array_equal(surf_a.hessian_min_eig, surf_b.hessian_min_eig,
                              equal_nan=True)
        assert surf_a.to_csv_text() == surf_b.to_csv_text()

        rho = fam.target_at([0.35, 0.65])
        assert hjw_upper_bound(rho, 4, 1000, seed=77) \
            == hjw_upper_bound(rho, 4, 1000, seed=77)

        zfam = zeta_slice_family()
        va, pa = min_phase_ggm(zfam, zfam.params_to_weights([0.55, 0.25]))
        vb, pb = min_phase_ggm(zfam, zfam.params_to_weights([0.55, 0.25]))
        assert va == vb and np.array_equal(pa, pb)

        out1, out2 = tmp_path / "fig_a.csv", tmp_path / "fig_b.csv"
        assert cli_main(["figure", "1", "--grid", "41", "--out", str(out1)]) == 0
        assert cli_main(["figure", "1", "--grid", "41", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
