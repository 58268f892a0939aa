"""Generalized geometric measure of genuine multiparty entanglement.

Computes the measure for arbitrary pure multiqudit states by sweeping all
bipartitions, and for symmetric mixed-state families by minimizing over
the phases of a twirl-preimage orbit and convexifying over the mixing
simplex. An independent decomposition-sampling bound cross-checks the
mixed-state values.
"""

from .families import (
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
from .hilbert import (
    Bipartition,
    DensityMatrix,
    PureState,
    SystemShape,
    enumerate_bipartitions,
    matricize,
)
from .pure import GgmReport, ggm_pure, ggm_values, max_schmidt_sq
from .roof import (
    GgmSurface,
    TwirledFamily,
    closed_form,
    convex_envelope_1d,
    convex_envelope_2d,
    ggm_mixed,
    hjw_upper_bound,
    lower_hull_contacts,
    min_phase_ggm,
    min_phase_ggm_many,
    simplex_grid,
)
from .states import (
    dicke,
    generalized_dicke,
    gghz,
    ghz,
    sector_state,
    superpose,
    uniform_sector_state,
    zeta,
)
from .twirl import (
    LocalUnitaryElement,
    UnitaryGroup,
    VerificationError,
    builtin_group,
    verify_invariance,
    verify_preimage,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "DensityMatrix",
    "FAMILY_BUILDERS",
    "GgmReport",
    "GgmSurface",
    "LocalUnitaryElement",
    "PureState",
    "SystemShape",
    "TwirledFamily",
    "UnitaryGroup",
    "VerificationError",
    "builtin_group",
    "closed_form",
    "convex_envelope_1d",
    "convex_envelope_2d",
    "dicke",
    "enumerate_bipartitions",
    "generalized_dicke",
    "gghz",
    "ghz",
    "ghz_dicke_mixture",
    "ghz_mixture",
    "ggm_mixed",
    "ggm_pure",
    "ggm_values",
    "hjw_upper_bound",
    "lower_hull_contacts",
    "matricize",
    "max_schmidt_sq",
    "min_phase_ggm",
    "min_phase_ggm_many",
    "qutrit_sector_family",
    "rank2_symmetric",
    "rank3_gghz",
    "rank3_ghz_dicke",
    "rank3_ghz_w",
    "rank5_five_qubit",
    "sector_state",
    "simplex_grid",
    "superpose",
    "uniform_sector_state",
    "verify_invariance",
    "verify_preimage",
    "zeta",
    "zeta_family",
    "zeta_slice_family",
]
