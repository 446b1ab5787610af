"""scripts/make_fixture.py's block build against the per-row builder it
replaced, and the bytes of the tables the benchmark generates."""

import hashlib
import io

import pytest
from hypothesis import given, strategies as st

from _oracles import o_blank_cells, o_build_fixture
from edakit.table import write_csv_to
from test_column_arrays import load_make_fixture

FIXTURE = load_make_fixture()


def build(n, seed):
    FIXTURE.N, FIXTURE.SEED = n, seed
    return FIXTURE.build_fixture()


def csv_text(t):
    buf = io.StringIO()
    write_csv_to(t, buf)
    return buf.getvalue()


@given(
    n=st.integers(1, 400),
    seed=st.integers(0, 2**64 - 1),
    blank_seed=st.integers(0, 2**64 - 1),
    share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
def test_block_build_equals_the_per_row_builder(n, seed, blank_seed, share):
    t, want = build(n, seed), o_build_fixture(n, seed, FIXTURE.SURNAMES)
    assert t == want
    assert csv_text(t) == csv_text(want)
    blanked = FIXTURE.blank_cells(t, share, blank_seed)
    want = o_blank_cells(t, share, blank_seed, FIXTURE.BLANK_COLUMNS)
    assert blanked == want
    assert csv_text(blanked) == csv_text(want)


# sha256 of write_csv_to's text for the tables perfbench builds, as the
# per-row builder wrote them
PINNED = {
    (5_000, 1): "54a66401bad7c56ac6a7ae4f2511c2b46e88afd7e3668ecd228b2ad890e12a05",
    (50_000, 1): "b69fdb032cec997e3a751a5b54c5b4b96fc1247e953110b5afdb5223216f6035",
    (100_000, 1): "9d3e7548f004a23711d82043092450d301a2a5314ba65682a0b189d77d9f3dd1",
    (100_000, 5): "2ce498b847b42aabf092adaf0bf14d3b2aaff7f1152e899df4cfb04d2687f692",
}


@pytest.mark.parametrize("n,seed", list(PINNED))
def test_benchmark_inputs_keep_their_bytes(n, seed):
    h = hashlib.sha256()

    class Sink:
        def write(self, text):
            h.update(text.encode())

    write_csv_to(build(n, seed), Sink())
    assert h.hexdigest() == PINNED[n, seed]
