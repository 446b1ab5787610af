#!/usr/bin/env python3
"""Regenerate data/churn_fixture.csv, a 200-row synthetic table matching the
bank-churn schema (all 14 attributes), and data/churn_fixture_blanks.csv, the
same table with some cells missing. Values are drawn from the package's
seeded generator, so both files are reproducible byte for byte.

Each column takes its draws as one block (``SplitMix64.randoms`` and
``randints``), column after column, in the stream order a row-by-row build
would use, so a block build gives the same table as one scalar call per value.

The fixture exercises the pipeline and CLI; it is NOT the real dataset, and
dataset-level findings stay NOT-EVALUATED on it by default.

Usage: python scripts/make_fixture.py [OUT_CSV [BLANKS_CSV]]
"""

from __future__ import annotations

import sys
from itertools import accumulate
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edakit.rng import SplitMix64
from edakit.table import Column, Kind, Table, label_codes, numeric_with_mask, write_csv

SEED = 20240  # fixed fixture seed
N = 200

# Blanked cells come from a stream of their own, so blanking never shifts the
# fixture draws.
BLANK_SEED = 20241
BLANK_SHARE = 0.05
BLANK_COLUMNS = ("Age", "Balance", "HasCrCard", "Geography")

SURNAMES = [
    "Smith", "Garcia", "Mueller", "Rossi", "Dubois", "Tanaka", "Novak",
    "Silva", "Kowalski", "Okafor", "Jensen", "Petrov", "Moreau", "Haddad",
]


def _gauss(rng: SplitMix64, n: int, mean: float, std: float) -> np.ndarray:
    # Irwin-Hall sum of 12 uniforms: mean 6, variance 1. Each row's uniforms
    # are added in draw order, so the sums do not depend on how sum() adds.
    u = rng.randoms(12 * n).reshape(n, 12)
    total = u[:, 0].copy()
    for k in range(1, 12):
        total += u[:, k]
    return mean + std * (total - 6.0)


def _choices(rng: SplitMix64, n: int, weights: list[float]) -> np.ndarray:
    """``n`` draws of ``rng.choice_weighted(weights)``, by the same comparisons."""
    acc = list(accumulate(weights))
    picks = np.searchsorted(acc, rng.randoms(n) * acc[-1], side="right")
    last_positive = max(i for i, w in enumerate(weights) if w > 0)
    return np.where(picks < len(acc), picks, last_positive)


def _balances(rng: SplitMix64, n: int) -> list[float]:
    """0.0 with probability 0.3, else uniform on [20000, 200000] to the cent.

    A row takes one draw, or a second for the amount, so n rows take at most
    2n draws; the ones left over go back to the stream.
    """
    u = rng.randoms(2 * n).tolist()
    balances, pos = [], 0
    for _ in range(n):
        if u[pos] < 0.3:
            balances.append(0.0)
            pos += 1
        else:
            balances.append(round(20000 + 180000 * u[pos + 1], 2))
            pos += 2
    rng.advance(pos - 2 * n)
    return balances


def build_fixture() -> Table:
    rng = SplitMix64(SEED)
    every = np.ones(N, dtype=bool)

    def numeric(name: str, values) -> Column:
        return Column.from_floats(name, Kind.NUMERIC, values, every)

    def boolean(name: str, values) -> Column:
        return Column.from_floats(name, Kind.BOOLEAN, values, every)

    # each statement draws one column's block, in column order: reordering them changes the table
    customer_ids = 15600000 + rng.randints(N, 1_000_000).astype(float)
    surnames = rng.randints(N, len(SURNAMES))
    # rint rounds half to even, as round() does
    credit = np.clip(np.rint(_gauss(rng, N, 650, 96)), 350.0, 850.0)
    credit[rng.randint(N)] = 850.0  # the ceiling score occurs in the data
    geography = _choices(rng, N, [0.50, 0.25, 0.25])
    gender = rng.randoms(N) >= 0.55
    age = np.maximum(np.rint(_gauss(rng, N, 39, 10)), 18.0)
    tenure = rng.randints(N, 11).astype(float)
    balance = _balances(rng, N)
    products = 1.0 + _choices(rng, N, [0.45, 0.45, 0.07, 0.03])
    has_card = rng.randoms(N) < 0.71
    active = rng.randoms(N) < 0.51
    # Python's round, not numpy's, which scales by 100 and can round the other way
    salary = [round(s, 2) for s in (1000 + 198000 * rng.randoms(N)).tolist()]
    exited = rng.randoms(N) < 0.20

    columns = (
        numeric("RowNumber", np.arange(1.0, N + 1)),
        numeric("CustomerId", customer_ids),
        Column.from_codes("Surname", surnames, SURNAMES),
        numeric("CreditScore", credit),
        Column.from_codes("Geography", geography, ("France", "Germany", "Spain")),
        Column.from_codes("Gender", gender, ("Male", "Female")),
        numeric("Age", age),
        numeric("Tenure", tenure),
        numeric("Balance", balance),
        numeric("NumOfProducts", products),
        boolean("HasCrCard", has_card),
        boolean("IsActiveMember", active),
        numeric("EstimatedSalary", salary),
        boolean("Exited", exited),
    )
    return Table("churn_fixture", columns, N)


def blank_cells(t: Table, share: float = BLANK_SHARE, seed: int = BLANK_SEED) -> Table:
    """Copy of ``t`` with about ``share`` of the cells of BLANK_COLUMNS missing.

    Each column takes one block of draws, one per cell, blanked or not, in
    BLANK_COLUMNS order. Balance stays present wherever Age is missing, so
    ``Balance=regress:Age`` can fill every Balance gap.
    """
    rng = SplitMix64(seed)
    for name in BLANK_COLUMNS:
        c = t.column(name)
        blank = rng.randoms(len(c)) < share
        if name == "Balance":
            blank &= numeric_with_mask(t.column("Age"))[1]
        if c.kind is Kind.CATEGORICAL:
            codes, labels = label_codes(c)
            c = Column.from_codes(name, np.where(blank, -1, codes), labels)
        else:
            values, present = numeric_with_mask(c)
            c = Column.from_floats(name, c.kind, values, present & ~blank)
        t = t.replace_column(c)
    return t


def main() -> int:
    data = Path(__file__).resolve().parent.parent / "data"
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else data / "churn_fixture.csv"
    blanks = Path(sys.argv[2]) if len(sys.argv) > 2 else data / "churn_fixture_blanks.csv"
    t = build_fixture()
    for path, table in ((out, t), (blanks, blank_cells(t))):
        path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(table, path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
