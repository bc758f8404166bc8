"""Rent-vs-buy economics: funding coverage ratios, tiered-pricing
markup chains, and the purchase break-even point.

Funding amounts are stored in plain USD (source figures are quoted in
units of 10,000 USD).  Coverage ratios round half-up to 2 decimals; the
bundled reference table mixes rounding and truncation in its printed
values, so consumers should compare at +/-0.01.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

from .errors import NeverBreaksEven, ValidationError, check_number


@dataclass(frozen=True)
class FundingLevel:
    label: str
    amount: float  # USD

    def __post_init__(self):
        check_number("funding amount", self.amount)


@dataclass(frozen=True)
class RentalQuote:
    provider: str
    monthly: float  # USD

    def __post_init__(self):
        check_number("monthly rent", self.monthly, positive=True)


@dataclass(frozen=True)
class PurchaseOption:
    capex: float
    monthly_opex: float = 0.0

    def __post_init__(self):
        check_number("capex", self.capex)
        check_number("monthly opex", self.monthly_opex)


def coverage_months(f: FundingLevel, q: RentalQuote) -> float:
    """Months of rental the funding covers, rounded half-up to 2 decimals."""
    ratio = Decimal(repr(f.amount)) / Decimal(repr(q.monthly))
    try:
        return float(ratio.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
    except InvalidOperation:  # more digits than the context's precision
        raise ValidationError(f"coverage ratio {ratio:.3e} is too large") from None


def tiered_price(base: float, markups) -> float:
    """Final price after each intermediary applies its cost-plus markup."""
    check_number("base price", base)
    price = base
    # one fixed order, so the rounded product does not depend on the order
    # the markups are listed in
    for m in sorted(markups):
        if not (math.isfinite(m) and m > -1):
            raise ValidationError(f"markup must be finite and > -1, got {m!r}")
        price *= 1.0 + m
    return price


def break_even(p: PurchaseOption, q: RentalQuote) -> int:
    """Smallest whole month count at which cumulative rent reaches the
    purchase cost (capex plus cumulative opex)."""
    net = q.monthly - p.monthly_opex
    if p.capex == 0:
        if net < 0:
            raise NeverBreaksEven("opex exceeds rent")
        return 1
    if net <= 0:
        raise NeverBreaksEven("rent never overtakes ownership cost")
    months = p.capex / net
    if not math.isfinite(months):
        raise ValidationError("break-even month count overflows")
    return max(1, math.ceil(months))


# ---------------------------------------------------------------------------
# Bundled reference tables


@dataclass(frozen=True)
class TableCell:
    table: str       # "cpu" | "gpu"
    provider: str
    funding_label: str
    computed: float
    printed: float

    @property
    def delta(self) -> float:
        return self.computed - self.printed


_FUNDING_COLUMNS = ("nsfc", "univ211", "undergrad", "vocational")


def load_tables():
    """(funding levels, quote rows) from the bundled data file.

    Quote rows are (table, RentalQuote, printed ratios keyed by funding
    column).
    """
    from importlib import resources  # only the bundled tables need it

    text = resources.files("clustersmith.data").joinpath("reference_tables.csv").read_text()
    fundings = []
    quotes = []
    for row in csv.DictReader(text.splitlines()):
        if row["table"] == "funding":
            fundings.append(FundingLevel(label=row["row"],
                                         amount=float(row["price_usd"])))
        else:
            printed = {col: float(row[col]) for col in _FUNDING_COLUMNS}
            quotes.append((row["table"],
                           RentalQuote(provider=row["row"],
                                       monthly=float(row["price_usd"])),
                           printed))
    return fundings, quotes


def coverage_table_cells() -> list[TableCell]:
    """Recompute every bundled ratio cell alongside its printed value."""
    fundings, quotes = load_tables()
    cells = []
    for table, quote, printed in quotes:
        for funding, col in zip(fundings, _FUNDING_COLUMNS):
            cells.append(TableCell(
                table=table,
                provider=quote.provider,
                funding_label=funding.label,
                computed=coverage_months(funding, quote),
                printed=printed[col],
            ))
    return cells
