"""Exact-arithmetic cluster algebra toolkit.

Mutation and enumeration of finite-type seed patterns, cluster complexes
and their Stanley-Reisner ideals, universal coefficients, graded
deformation-degree bookkeeping, decision procedures for the lattice and
derivation conditions, the weight cone of the squarefree degeneration, and
the flat family over the coefficient parameters, in closed form.
`cli.Pipeline` wires the stages and repairs T1; it is not imported here."""

from .seeds import (ExtendedExchangeMatrix, Seed, load_seed, seed_from_dict,
                    seed_to_dict)
from .atlas import enumerate_atlas
from .simplicial import (SimplicialComplex, MonomialIdeal, cluster_complex,
                         sr_ideal, minimal_nonfaces)
from .gradings import (m_grading, rank_flags, find_positive_grading,
                       find_strictly_positive, add_frozen_for_positivity)
from .universal import build_universal, fiber_at_zero
from .cotangent import t1_invariant, t1_witnesses
from .properties import check_t0, check_t0_star, check_t1, semigroup_data
from .groebner import groebner_cone, interior_weight, cone_certificates
from .deform import lift, verify_family

__version__ = "0.1.0"

__all__ = [
    "ExtendedExchangeMatrix", "Seed", "load_seed", "seed_from_dict",
    "seed_to_dict",
    "enumerate_atlas",
    "SimplicialComplex", "MonomialIdeal", "cluster_complex", "sr_ideal",
    "minimal_nonfaces",
    "m_grading", "rank_flags", "find_positive_grading",
    "find_strictly_positive", "add_frozen_for_positivity",
    "build_universal", "fiber_at_zero",
    "t1_invariant", "t1_witnesses",
    "check_t0", "check_t0_star", "check_t1", "semigroup_data",
    "groebner_cone", "interior_weight", "cone_certificates",
    "lift", "verify_family",
]
