"""Exact computation of push-forward Segre classes of subschemes of
smooth projective toric varieties, from a fan and a multihomogeneous
ideal in the Cox ring."""

from .chow import ChowRing, build_chow_ring, chow_ranks
from .cones import curve_functionals, find_alpha, find_ample, is_nef
from .errors import ToricSegreError
from .exactpoly import (Polynomial, RingContext, multidegree_of,
                        random_homogeneous)
from .fan import (CoxContext, Fan, build_cox_context, grading_matrix,
                  validate_smooth_complete)
from .groebner import Ideal
from .parser import parse_polynomial
from .segre import (SegreResult, preprocess, segre_class, zero_dim_length)

__all__ = [
    "ChowRing", "CoxContext", "Fan", "Ideal", "Polynomial",
    "RingContext", "SegreResult", "ToricSegreError", "build_chow_ring",
    "build_cox_context", "chow_ranks", "curve_functionals", "find_alpha",
    "find_ample", "grading_matrix", "is_nef", "multidegree_of",
    "parse_polynomial", "preprocess", "random_homogeneous", "segre_class",
    "validate_smooth_complete", "zero_dim_length",
]

__version__ = "0.1.0"
