"""Brute-force graded Betti numbers of arbitrary monomial ideals.

Independent of any stability hypothesis: for each multidegree m dividing the
lcm of the generators, beta_{i,m}(I) is the rank of the reduced homology
H~_{i-1} of the simplicial complex {s subset of supp(m) : m / x_s in I}
(multidegrees outside that box contribute nothing, by the usual support
argument).  Homology is taken over the rationals via exact integer column
elimination of sparse boundary columns keyed by faces; the declared
reference field is Q, so no modular-arithmetic false negatives can occur.
Each complex is read off the generators dividing m, one generating face
each; where the complex is a cone, exactly when m is not the lcm of those
generators, every beta vanishes and the cell costs no rank.  The scan still
visits every cell of the box, which the box cap (`errors.CAPS`) bounds.
The per-multidegree ranks and the box scan live in `_kernels`.
"""

from __future__ import annotations

from math import prod

from . import _kernels
from .betti import TRIVIAL, BettiTable
from .errors import (
    CAPS,
    AmbientMismatchError,
    BoxTooLargeError,
    UnitIdealError,
    cap_message,
)
from .monomials import Monomial, MonomialIdeal


def koszul_betti(ideal: MonomialIdeal, m: Monomial) -> tuple[int, ...]:
    """Multigraded Betti numbers beta_{i,m}(I) for i = 0..n at one multidegree.

    The kernel lists the 2^|supp m| subsets of m's support, the cells of the
    box of m's radical, whatever m's exponents; that count is held to the
    box cap."""
    if ideal.is_unit:
        raise UnitIdealError("Betti numbers of the zero ring are undefined")
    if m.n != ideal.n:
        raise AmbientMismatchError(f"monomial in {m.n} variables, ideal in {ideal.n}")
    _refuse_over_box_cap(2 ** len(m.support))
    betas = _kernels.betti_at_multidegree(ideal.exponent_rows, m.exponents)
    betas += [0] * (ideal.n + 1 - len(betas))
    return tuple(betas)


def _refuse_over_box_cap(box: int) -> None:
    """Hold a box of ``box`` cells to the box cap."""
    if box > CAPS["box"].bound:
        raise BoxTooLargeError(cap_message("box", box), box_size=box)


def bruteforce_betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Betti table of S/I with no stability hypothesis; box capped at 10^6."""
    if ideal.is_unit:
        raise UnitIdealError("the zero ring has no Betti table")
    if ideal.is_zero:
        return TRIVIAL
    _refuse_over_box_cap(prod(e + 1 for e in ideal.lcm_exponents))
    entries = _kernels.koszul_scan(ideal.exponent_rows, ideal.lcm_exponents)
    entries[(0, 0)] = 1
    return BettiTable.from_entries(entries)


def bruteforce_regularity(ideal: MonomialIdeal) -> int:
    return bruteforce_betti_table(ideal).regularity


def bruteforce_projective_dimension(ideal: MonomialIdeal) -> int:
    return bruteforce_betti_table(ideal).projective_dimension


def bruteforce_depth(ideal: MonomialIdeal) -> int:
    """depth S/I = n - pd(S/I), valid for arbitrary monomial ideals."""
    return ideal.n - bruteforce_projective_dimension(ideal)
