#!/usr/bin/env python3
"""Regenerate data/churn_fixture.csv, a 200-row synthetic table matching the
bank-churn schema (all 14 attributes), and data/churn_fixture_blanks.csv, the
same table with some cells missing. Values are drawn from the package's
seeded generator, so both files are reproducible byte for byte.

The fixture exercises the pipeline and CLI; it is NOT the real dataset, and
dataset-level findings stay NOT-EVALUATED on it by default.

Usage: python scripts/make_fixture.py [OUT_CSV [BLANKS_CSV]]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edakit.rng import SplitMix64
from edakit.table import (
    Kind,
    Table,
    boolean_column,
    categorical_column,
    numeric_column,
    write_csv,
)

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


def _gauss(rng: SplitMix64, mean: float, std: float) -> float:
    # Irwin-Hall sum of 12 uniforms: mean 6, variance 1
    total = sum(rng.random() for _ in range(12))
    return mean + std * (total - 6.0)


def build_fixture() -> Table:
    rng = SplitMix64(SEED)
    row_numbers = [float(i + 1) for i in range(N)]
    customer_ids = [float(15600000 + rng.randint(1_000_000)) for _ in range(N)]
    surnames = [SURNAMES[rng.randint(len(SURNAMES))] for _ in range(N)]

    credit = [min(850.0, max(350.0, round(_gauss(rng, 650, 96)))) for _ in range(N)]
    credit[rng.randint(N)] = 850.0  # the ceiling score occurs in the data

    geo_labels = ("France", "Germany", "Spain")
    geography = [geo_labels[rng.choice_weighted([0.50, 0.25, 0.25])] for _ in range(N)]
    gender = ["Male" if rng.random() < 0.55 else "Female" for _ in range(N)]
    age = [float(max(18, round(_gauss(rng, 39, 10)))) for _ in range(N)]
    tenure = [float(rng.randint(11)) for _ in range(N)]
    balance = [
        0.0 if rng.random() < 0.3 else round(20000 + 180000 * rng.random(), 2)
        for _ in range(N)
    ]
    products = [float(1 + rng.choice_weighted([0.45, 0.45, 0.07, 0.03])) for _ in range(N)]
    has_card = [1 if rng.random() < 0.71 else 0 for _ in range(N)]
    active = [1 if rng.random() < 0.51 else 0 for _ in range(N)]
    salary = [round(1000 + 198000 * rng.random(), 2) for _ in range(N)]
    exited = [1 if rng.random() < 0.20 else 0 for _ in range(N)]

    columns = (
        numeric_column("RowNumber", row_numbers),
        numeric_column("CustomerId", customer_ids),
        categorical_column("Surname", surnames),
        numeric_column("CreditScore", credit),
        categorical_column("Geography", geography),
        categorical_column("Gender", gender),
        numeric_column("Age", age),
        numeric_column("Tenure", tenure),
        numeric_column("Balance", balance),
        numeric_column("NumOfProducts", products),
        boolean_column("HasCrCard", has_card),
        boolean_column("IsActiveMember", active),
        numeric_column("EstimatedSalary", salary),
        boolean_column("Exited", exited),
    )
    return Table("churn_fixture", columns, N)


def blank_cells(t: Table, share: float = BLANK_SHARE, seed: int = BLANK_SEED) -> Table:
    """Copy of ``t`` with about ``share`` of the cells of BLANK_COLUMNS missing.

    Balance stays present wherever Age is missing, so ``Balance=regress:Age``
    can fill every Balance gap.
    """
    build = {Kind.NUMERIC: numeric_column, Kind.CATEGORICAL: categorical_column,
             Kind.BOOLEAN: boolean_column}
    rng = SplitMix64(seed)
    for name in BLANK_COLUMNS:
        c = t.column(name)
        age = t.column("Age").values
        cells = [
            None if rng.random() < share and not (name == "Balance" and age[i] is None) else v
            for i, v in enumerate(c.values)
        ]
        t = t.replace_column(build[c.kind](name, cells))
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
