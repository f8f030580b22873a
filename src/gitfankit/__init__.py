"""Exact-arithmetic combinatorics of point configurations up to translation:
GIT fans of the Grassmannian cone Gr(2, n+1), semilattice blow-ups, stellar
subdivisions and the tropical Delta-reduction, with machine verification."""

import sys

from .exact_linalg import kernel_basis, rank, solve
from .grassmann import (
    TwoBlock,
    WeightData,
    brute_force_supports,
    delta_contains,
    delta_meets_relint,
    is_y_set,
    pairs,
    trop_contains,
    two_block_hyperplane,
    wedge_support,
    weights,
    y_set_witness,
)
from .gitfan import (
    CenterIdeal,
    center_ideal,
    center_pullback,
    chamber,
    delta_reduction,
    git_fan,
    git_fan_star,
    lambda0,
    lambda1,
    nu_order,
    nu_ray,
    omega,
    omega_star,
    sigma_r,
    verify_delta_subfan,
    verify_nu_equality,
    verify_ray_classification,
    verify_star_subfan,
    verify_walls,
    wall_fan,
)
from .polyhedral import (
    Cone,
    Fan,
    FanAxiomViolation,
    fan_from_maximal,
    is_subfan,
    stellar_subdivide,
)
from .semilattice import (
    BlowPair,
    FiniteSemilattice,
    blow_up,
    face_poset,
    harmonious_closure,
    is_building_set,
    is_harmonious,
    is_nested,
    poset_isomorphic,
    ray_face_poset,
    verify_blowup_join_criterion,
    verify_fk_bridge,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty the package's result caches: the pair-check cache of
    ``polyhedral`` and every ``lru_cache`` of every imported module of the
    package.  Results do not change; later calls recompute them."""
    from . import polyhedral

    polyhedral._PAIR_CACHE.clear()
    for name, mod in list(sys.modules.items()):
        if name.startswith(__name__ + ".") and mod is not None:
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
