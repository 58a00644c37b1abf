"""Desk-scale laboratory for discretized projection geometry.

Finite point sets in the unit square stand in for fractal sets; the
package measures grid covering numbers, non-concentration profiles, tube
incidences, sumset growth, product-like constructions, and two-scale
decompositions, with every inequality reported as (lhs, rhs) pairs.
"""

from .delta_core import (
    Direction,
    DirectionSet,
    NonConcentrationReport,
    PointSet2D,
    ScalarSet,
    Scale,
    check_delta_t,
    covering_number,
    covering_number_2d,
    dyadic_content,
    extract_delta_s_subset,
    optimal_interval_cover,
    project,
    project_param,
    projection_sweep,
)
from .additive import (
    BsgResult,
    GridSet,
    PairGraph,
    PlunneckeReport,
    bsg_extract,
    iterated_sumset,
    plunnecke_report,
    snap,
    sumset,
)
from .incidence import (
    CauchySchwarzBound,
    DirectionSumReport,
    IncidenceTally,
    KaufmanWitness,
    Tube,
    TubeFamily,
    cauchy_schwarz_lower_bound,
    close_pairs,
    close_pairs_bruteforce,
    direction_sum_upper_bound,
    kaufman_witness,
    tally_close_pairs,
    tube_cover,
)
from .product_construction import (
    PairTubeIndex,
    ProductExperiment,
    ProductLikeSet,
    RelationGraph,
    TriplePairData,
    TubePairFamily,
    affine_renormalize,
    build_product_like,
    compression_check,
    good_triple_scan,
    product_experiment,
    relation_graph,
    renormalized_directions,
    roughly_horizontal_filter,
    triple_intersections,
    triple_projection,
    tube_pair_family,
)
from .scale_blowup import (
    DyadicCover,
    TwoScaleStructure,
    WeightedPointSet,
    directional_energy,
    efficient_cover,
    energy,
    frostman_weights,
    horizontal_dilate,
    neighborhood_sum_measure,
    pick_scale,
    reparam_directions,
    rescaled_projection_identity,
    restrict_to_tube,
    two_scale_decomposition,
)
from .generators import (
    GeneratorSpec,
    gen_ap,
    gen_cantor_1d,
    gen_four_corner,
    gen_planted_collinear,
    gen_random_frostman,
)
from .errors import (
    BsgHypothesisError,
    CsvFormatError,
    GeneratorError,
    InvariantError,
    NonConcentrationError,
    ProjlabError,
    SeparationError,
    TwoScaleError,
)

__version__ = "0.1.0"
