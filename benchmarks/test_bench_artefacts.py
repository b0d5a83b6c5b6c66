"""Every committed artefact, regenerated in full.

tier-1 (``tests/bench/test_committed_artefacts.py``) regenerates
everything except Backprop's shard row, which builds a 64 MB weight
matrix and takes 9 s; here every row of every artefact is compared,
with the same helper and the same gates.
"""

import pytest

from repro.bench.pinned import PINNED
from tests.bench.test_committed_artefacts import assert_regenerates


@pytest.mark.parametrize("what", list(PINNED))
def test_every_row_of_the_committed_file_regenerates(what):
    assert_regenerates(what)
