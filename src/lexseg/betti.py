"""Graded Betti tables of monomial quotients: value type and renderings.

Entries are beta_{p,q}(S/I) laid out Macaulay2-style: column p is the
homological degree, row r = q - p, zeros printed as dots.  The table height
is the regularity and the width the projective dimension.
"""

from __future__ import annotations

from itertools import chain, compress

from ._value import Value, _set
from .errors import CAPS, refuse


class BettiTable(Value):
    """Dense grid rows[r][p] = beta_{p, p+r}(S/I), trimmed on both axes."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple([tuple(row) for row in rows])  # exact size, see _value
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise TypeError(f"Betti numbers must be ints, got {rows}")
        if not rows or not rows[0]:
            raise ValueError("empty Betti table")
        if set(map(len, rows)) != {len(rows[0])}:
            raise ValueError("ragged Betti table")
        if min(chain.from_iterable(rows)) < 0:
            raise ValueError("negative Betti number")
        if rows[0][0] != 1:
            raise ValueError("beta_{0,0} must be 1")
        _set(self, "rows", rows)

    @property
    def projective_dimension(self) -> int:
        return len(self.rows[0]) - 1

    @property
    def regularity(self) -> int:
        return len(self.rows) - 1

    def entry(self, p: int, q: int) -> int:
        r = q - p
        if 0 <= r < len(self.rows) and 0 <= p < len(self.rows[0]):
            return self.rows[r][p]
        return 0

    def column_total(self, p: int) -> int:
        return sum(row[p] for row in self.rows)

    @classmethod
    def from_entries(cls, entries: dict) -> "BettiTable":
        """Build from a {(p, q): beta} mapping; zero values are ignored.
        A table over the Betti-table cap (`errors.CAPS`) is refused before
        any row is built."""
        nz = {k: v for k, v in entries.items() if v != 0}
        pd = max((p for p, _ in nz), default=0)
        reg = max((q - p for p, q in nz), default=0)
        _refuse_over_table_cap(reg + 1, pd + 1)
        return cls([nz.get((p, p + r), 0) for p in range(pd + 1)]
                   for r in range(reg + 1))

    def euler_kpolynomial(self) -> tuple[int, ...]:
        """Coefficients of sum (-1)^p beta_{p,q} t^q, entry by entry: each
        nonzero beta_{p,p+r} of row r is added into t^(r+p) with sign
        (-1)^p, and a zero row is skipped whole, so the work follows the
        entries the table holds, not its rectangle."""
        width = len(self.rows[0])
        out = [0] * (width - 1 + len(self.rows))
        for r, row in enumerate(self.rows):
            if any(row):
                for p in compress(range(width), row):
                    if p % 2:
                        out[r + p] -= row[p]
                    else:
                        out[r + p] += row[p]
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    def to_text(self) -> str:
        """Dotted fixed-width rendering; byte-stable across runs."""
        cells = [[str(v) if v else "." for v in row] for row in self.rows]
        widths = [max(len(cells[r][p]) for r in range(len(cells)))
                  for p in range(len(cells[0]))]
        lines = [" ".join(c.rjust(w) for c, w in zip(row, widths))
                 for row in cells]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "pd": self.projective_dimension,
            "reg": self.regularity,
            "rows": [list(r) for r in self.rows],
        }

    def __str__(self) -> str:
        return self.to_text()


def _refuse_over_table_cap(height: int, width: int) -> None:
    """Refuse a table of ``height`` rows of ``width`` entries, (reg + 1) by
    (pd + 1), over the Betti-table cap (`errors.CAPS`)."""
    if height * width > CAPS["betti-table"].bound:
        refuse("betti-table", height * width, rows=height, columns=width)


TRIVIAL = BettiTable(((1,),))  # S/(0): the free quotient's trivial resolution
