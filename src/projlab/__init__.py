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
    check_delta_t,
    covering_number,
    dyadic_content,
    extract_delta_s_subset,
    optimal_interval_cover,
    project,
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
    KaufmanWitness,
    cauchy_schwarz_lower_bound,
    close_pairs,
    close_pairs_bruteforce,
    kaufman_witness,
)
from .product_construction import (
    PairTubeIndex,
    ProductExperiment,
    ProductLikeSet,
    TriplePairData,
    build_product_like,
    compression_check,
    good_triple_scan,
    product_experiment,
    roughly_horizontal_filter,
    triple_intersections,
    triple_projection,
)
from .scale_blowup import (
    TwoScaleStructure,
    WeightedPointSet,
    frostman_weights,
    horizontal_dilate,
    rescaled_projection_identity,
    two_scale_decomposition,
)
from .generators import (
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
