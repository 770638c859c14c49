"""Exact verification of full strong exceptional collections of line
bundles on smooth toric Fano varieties."""

from .fans import (
    ContractionStep,
    Fan,
    FanError,
    LatticePolytope,
    PicBasis,
    contraction_step,
    deg_and_pic,
    fan_from_rays,
    nef_ample_test,
    polytope_fan_roundtrip,
    primitive_collections,
    star_subdivision,
    validate_fan,
)
from .cohomology import (
    ChainConeSystem,
    FanNotComplete,
    ForbiddenSet,
    cohomology_dims,
    cohomology_dims_oracle,
    forbidden_sets,
    has_higher_cohomology,
    strong_exceptional_along_chain,
    strong_exceptional_check,
)
from .frobenius import (
    SplitSet,
    frobenius_gen_set,
    frobenius_gen_support,
    frobenius_split_classes,
    frobenius_summands,
    nef_frobenius_collection,
    pushforward_gamma_agreement,
)
from .method1 import GenerationCertificate, generation_closure, koszul_sequences
from .quiver import (
    QuiverOfSections,
    build_quiver_of_sections,
    check_theta_generic,
    covering_quiver_on_y,
    minkowski_embedding_check,
    theta_fiber_surjectivity_check,
)
from .diagonal import (
    GradedChainComplex,
    cell_sets,
    derivative_complex,
    diagonal_resolution_verdict,
    fiber_exactness_check,
    restrict_cells,
    sign_solve,
    superpotential,
)
from .pipelines import (
    ContractionPoset,
    helix_twist,
    propagate_collection,
    tilting_total_space_check,
    verify_variety_recipe,
)
from .workspace import Workspace, load_workspace

__version__ = "0.1.0"
