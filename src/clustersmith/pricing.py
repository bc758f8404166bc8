"""Rent-vs-buy economics on plain numbers, all in USD:

- `coverage_months(funding, monthly)`: months of rent at `monthly` USD
  that a `funding` of USD covers;
- `break_even(capex, opex, monthly)`: months until buying at `capex` USD
  plus `opex` USD a month costs no more than renting at `monthly` USD.

The bundled table stores funding amounts in plain USD (source figures
are quoted in units of 10,000 USD).  Coverage ratios round half-up to 2 decimals; the
bundled reference table mixes rounding and truncation in its printed
values, so consumers should compare at +/-0.01.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ValidationError, check_number


def coverage_months(funding: float, monthly: float) -> float:
    """Months of rental the funding covers, rounded half-up to 2 decimals."""
    # not imported at start-up
    from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

    check_number("funding amount", funding)
    check_number("monthly rent", monthly, positive=True)
    ratio = Decimal(repr(funding)) / Decimal(repr(monthly))
    try:
        return float(ratio.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
    except InvalidOperation:  # more digits than the context's precision
        raise ValidationError(f"coverage ratio {ratio:.3e} is too large") from None


def break_even(capex: float, opex: float, monthly: float) -> int:
    """Smallest whole month count at which cumulative rent reaches the
    purchase cost (capex plus cumulative opex)."""
    check_number("capex", capex)
    check_number("monthly opex", opex)
    check_number("monthly rent", monthly, positive=True)
    net = monthly - opex
    if capex == 0:
        if net < 0:
            raise ValidationError("opex exceeds rent")
        return 1
    if net <= 0:
        raise ValidationError("rent never overtakes ownership cost")
    months = capex / net
    if not math.isfinite(months):
        raise ValidationError("break-even month count overflows")
    return max(1, math.ceil(months))


# ---------------------------------------------------------------------------
# Bundled reference tables


class TableCell(namedtuple("TableCell",
                           "table provider funding_label computed printed")):
    """One ratio cell: `table` is "cpu" or "gpu"."""

    __slots__ = ()

    @property
    def delta(self) -> float:
        """computed - printed, exact: both are 2-decimal values."""
        from decimal import Decimal  # not imported at start-up

        return float(Decimal(repr(self.computed)) - Decimal(repr(self.printed)))


_FUNDING_COLUMNS = ("nsfc", "univ211", "undergrad", "vocational")


def coverage_table_cells() -> list[TableCell]:
    """Recompute every bundled ratio cell alongside its printed value: each
    quote row against each funding row, in file order."""
    import csv  # not imported at start-up
    from importlib import resources  # only the bundled tables need it

    text = resources.files("clustersmith.data").joinpath("reference_tables.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    fundings = [(r["row"], float(r["price_usd"])) for r in rows
                if r["table"] == "funding"]
    return [TableCell(r["table"], r["row"], label,
                      coverage_months(amount, float(r["price_usd"])),
                      float(r[column]))
            for r in rows if r["table"] != "funding"
            for (label, amount), column in zip(fundings, _FUNDING_COLUMNS)]
