"""Hilbert series, regularity, and Betti tables of monomial ideals, plus
lexsegment ideals realizing any prescribed (regularity, h-degree) pair."""

from .betti import BettiTable
from .betti_oracle import (
    bruteforce_betti_table,
    bruteforce_depth,
    bruteforce_regularity,
    koszul_betti,
)
from .constructions import (
    ConstructionReport,
    Invariants,
    construct,
    construct_first_step,
    construct_second_step,
    fixture,
)
from .eliahou_kervaire import (
    depth,
    ek_betti_table,
    projective_dimension,
    regularity,
)
from .errors import (
    AmbientMismatchError,
    BettiTableTooLargeError,
    BoxTooLargeError,
    ConstructionError,
    LexsegError,
    NotOSequenceError,
    StabilityRequiredError,
    TooManyGeneratorsError,
    UnitIdealError,
    ZeroIdealError,
)
from .hilbert import (
    HilbertSeries,
    HPolynomial,
    h_degree,
    h_polynomial,
    hilbert_function,
    hilbert_series,
    kpolynomial,
)
from .macaulay import (
    HilbertFunctionSpec,
    MacaulayExpansion,
    is_o_sequence,
    lex_ideal_from_hf,
    macaulay_expansion,
    macaulay_growth,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    contains,
    divides,
    is_lexsegment,
    is_stable,
    is_strongly_stable,
    krull_dimension,
    lex_compare,
    minimal_generators,
)

__all__ = [
    "AmbientMismatchError",
    "BettiTable",
    "BettiTableTooLargeError",
    "BoxTooLargeError",
    "ConstructionError",
    "ConstructionReport",
    "HPolynomial",
    "HilbertFunctionSpec",
    "HilbertSeries",
    "Invariants",
    "LexsegError",
    "MacaulayExpansion",
    "Monomial",
    "MonomialIdeal",
    "NotOSequenceError",
    "StabilityRequiredError",
    "TooManyGeneratorsError",
    "UnitIdealError",
    "ZeroIdealError",
    "bruteforce_betti_table",
    "bruteforce_depth",
    "bruteforce_regularity",
    "construct",
    "construct_first_step",
    "construct_second_step",
    "contains",
    "depth",
    "divides",
    "ek_betti_table",
    "fixture",
    "h_degree",
    "h_polynomial",
    "hilbert_function",
    "hilbert_series",
    "is_lexsegment",
    "is_o_sequence",
    "is_stable",
    "is_strongly_stable",
    "koszul_betti",
    "kpolynomial",
    "krull_dimension",
    "lex_compare",
    "lex_ideal_from_hf",
    "macaulay_expansion",
    "macaulay_growth",
    "minimal_generators",
    "projective_dimension",
    "regularity",
]

__version__ = "0.1.0"
