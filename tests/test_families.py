import numpy as np
import pytest

from ggm.families import (
    FAMILY_BUILDERS,
    ghz_dicke_mixture,
    ghz_mixture,
    qutrit_sector_family,
    rank2_symmetric,
    rank3_gghz,
    rank3_ghz_dicke,
    rank3_ghz_w,
    rank5_five_qubit,
    zeta_family,
    zeta_slice_family,
)
from ggm.roof import TwirledFamily, ggm_mixed, min_phase_ggm_many
from ggm.twirl import verify_invariance, verify_preimage


ALL_BUILDERS = [
    rank2_symmetric,
    rank3_ghz_w,
    rank3_gghz,
    rank3_ghz_dicke,
    rank5_five_qubit,
    lambda: ghz_dicke_mixture(4),
    zeta_family,
    zeta_slice_family,
    qutrit_sector_family,
    ghz_mixture,
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_families_verify_at_random_weights(builder):
    fam = builder()
    rng = np.random.default_rng(19)
    for _ in range(3):
        params = rng.dirichlet(np.ones(len(fam.param_names) + 1))[:-1]
        weights = fam.params_to_weights(params)
        assert verify_invariance(fam.group, fam.target_at(weights)).ok
    assert verify_preimage(fam.group, fam.basis).ok


def test_rank5_weight_pairing():
    fam = rank5_five_qubit()
    w = fam.params_to_weights([0.4, 0.4])
    assert np.allclose(w, [0.4, 0.2, 0.2, 0.1, 0.1])


def test_zeta_slice_weights():
    fam = zeta_slice_family()
    w = fam.params_to_weights([0.5, 0.3])
    assert np.allclose(w, [0.5, 0.15, 0.15, 0.2])


def test_ghz_dicke_mixture_weight_order():
    fam = ghz_dicke_mixture(4)
    w = fam.params_to_weights([0.1, 0.2, 0.3])
    assert np.allclose(w, [0.4, 0.1, 0.2, 0.3])
    assert len(fam.basis) == 4


def test_qutrit_corners_match_pure_sector_values():
    fam = qutrit_sector_family()
    raw, _ = min_phase_ggm_many(fam, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(raw, 2 / 3, atol=1e-9)


def test_ghz_mixture_matches_parity_family():
    # the GHZ+/- mixture is the parity family in a rotated local basis, so
    # the measures agree pointwise
    ghz_fam = ghz_mixture(3)
    parity_fam = rank2_symmetric(3)
    xs = np.linspace(0.05, 0.95, 7)[:, None]
    a, _ = min_phase_ggm_many(ghz_fam, xs)
    b, _ = min_phase_ggm_many(parity_fam, xs)
    assert np.max(np.abs(a - b)) < 1e-9


def test_rank3_five_qubit_convex_window():
    # diagnostic window where the five-qubit rank-3 surface is convex:
    # sample interior points with x1 >= 0.64 and x2 <= 0.36
    fam = rank3_ghz_dicke(5)
    pts = np.array([[0.70, 0.10], [0.75, 0.15], [0.80, 0.10],
                    [0.66, 0.20], [0.72, 0.25], [0.90, 0.05]])
    surface = ggm_mixed(fam, grid=pts)
    assert np.isfinite(surface.hessian_min_eig).all()
    assert (surface.hessian_min_eig > -1e-6).all()


def test_registry_builds_everything():
    for name, builder in FAMILY_BUILDERS.items():
        fam = builder()
        assert fam.name, name


@pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
def test_params_to_weights_batch_equals_stacked_points(name):
    fam = FAMILY_BUILDERS[name]()
    arity = len(fam.param_names)
    points = np.random.default_rng(23).dirichlet(np.ones(arity + 1), size=12)[:, :arity]
    stacked = np.stack([fam.params_to_weights(p) for p in points])
    batch = fam.params_to_weights(points)
    assert batch.shape == (12, len(fam.basis))
    assert np.array_equal(batch, stacked)
    assert np.array_equal(fam.params_to_weights(points.reshape(3, 4, arity)),
                          stacked.reshape(3, 4, -1))


@pytest.mark.parametrize("builder", [rank3_ghz_w, rank5_five_qubit])
def test_params_to_weights_rejects_a_batch_with_one_row_outside(builder):
    fam = builder()
    points = np.array([[0.2, 0.3], [0.7, 0.7], [0.1, 0.1]])
    with pytest.raises(ValueError, match="leave the mixing simplex"):
        fam.params_to_weights(points)


def test_weight_map_of_the_wrong_shape_rejected():
    base = rank3_ghz_w()

    def one_point_map(params):
        # Written for one vector: on a (2, 2) batch this unpacks rows.
        x1, x2 = params
        return np.array([x1, x2, 1.0 - x1 - x2])

    fam = TwirledFamily(group=base.group, basis=base.basis, param_names=base.param_names,
                        weight_map=one_point_map)
    assert np.allclose(fam.params_to_weights([0.2, 0.3]), [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="weight_map returned shape"):
        fam.params_to_weights(np.array([[0.2, 0.3], [0.1, 0.4]]))

    short = TwirledFamily(group=base.group, basis=base.basis, param_names=base.param_names,
                          weight_map=lambda params: params)
    with pytest.raises(ValueError, match="weight_map returned shape"):
        short.params_to_weights([0.2, 0.3])
