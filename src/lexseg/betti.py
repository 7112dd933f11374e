"""Graded Betti tables of monomial quotients: value type and renderings.

Entries are beta_{p,q}(S/I) laid out Macaulay2-style: column p is the
homological degree, row r = q - p, zeros printed as dots.  The table height
is the regularity and the width the projective dimension.
"""

from __future__ import annotations

from ._value import Value, _set


class BettiTable(Value):
    """Dense grid rows[r][p] = beta_{p, p+r}(S/I), trimmed on both axes."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        if any(type(v) is not int for r in rows for v in r):
            raise TypeError(f"Betti numbers must be ints, got {rows}")
        if not rows or not rows[0]:
            raise ValueError("empty Betti table")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged Betti table")
        if any(v < 0 for r in rows for v in r):
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
        """Build from a {(p, q): beta} mapping; zero values are ignored."""
        nz = {k: v for k, v in entries.items() if v != 0}
        pd = max((p for p, _ in nz), default=0)
        reg = max((q - p for p, q in nz), default=0)
        rows = [[nz.get((p, p + r), 0) for p in range(pd + 1)]
                for r in range(reg + 1)]
        return cls(tuple(tuple(r) for r in rows))

    def euler_kpolynomial(self) -> tuple[int, ...]:
        """Alternating column sums: coefficients of sum (-1)^p beta_{p,q} t^q."""
        pd = self.projective_dimension
        reg = self.regularity
        out = [0] * (pd + reg + 1)
        for r, row in enumerate(self.rows):
            for p, v in enumerate(row):
                if p % 2 == 0:
                    out[p + r] += v
                else:
                    out[p + r] -= v
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


TRIVIAL = BettiTable(((1,),))  # S/(0): the free quotient's trivial resolution
