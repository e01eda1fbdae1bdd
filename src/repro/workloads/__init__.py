"""Problem generators: synthetic social-media Gram, Laplacians, random
SPD families, least-squares instances, and the named registry."""

from .laplacian import laplacian_1d, laplacian_2d, laplacian_3d
from .least_squares import LeastSquaresProblem, random_least_squares
from .random_spd import (
    banded_spd,
    diagonally_dominant,
    equicorrelation_blocks,
    random_unit_diagonal_spd,
)
from .social_media import (
    SocialMediaProblem,
    social_media_problem,
    term_document_matrix,
)
from .suite import Problem, available_problems, get_problem, register_problem

__all__ = [
    "LeastSquaresProblem",
    "Problem",
    "SocialMediaProblem",
    "available_problems",
    "banded_spd",
    "diagonally_dominant",
    "equicorrelation_blocks",
    "get_problem",
    "laplacian_1d",
    "laplacian_2d",
    "laplacian_3d",
    "random_least_squares",
    "random_unit_diagonal_spd",
    "register_problem",
    "social_media_problem",
    "term_document_matrix",
]
