"""Engine stream digests: the pin under the phase-interpreter refactor.

``tests/data/engine_stream_digests.json`` holds one sha256 per cell of
{trainer} x {collective} x {sparse_comm} x {fault scenario} over the
span stream, ``CommRecord``s, ``FailureRecord``s, history and final
weights of a tiny fixed-seed fit, generated from the pre-interpreter
``engine/driver.py`` (see ``tests/data/make_engine_digests.py``).  Any
drift in a priced second, a span boundary, span order or a record shows
up here as a named cell.  The file is never regenerated to make a
change pass.
"""

from __future__ import annotations

import json

import pytest

from data.make_engine_digests import (COLLECTIVES, DIGEST_PATH, FAULTS,
                                      PS_SYSTEMS, SPARSE_MODES, SYSTEMS,
                                      bsp_cells, cell_key, cell_parts,
                                      fold, ps_cell_parts)


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DIGEST_PATH.read_text())


@pytest.mark.parametrize("sparse", SPARSE_MODES)
@pytest.mark.parametrize("collective", sorted(COLLECTIVES))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_bsp_cells_match_pinned_digests(system, collective, sparse, pinned):
    drifted = [
        cell_key(system, collective, sparse, fault) for fault in FAULTS
        if fold(cell_parts(system, collective, sparse, fault))
        != pinned[cell_key(system, collective, sparse, fault)]]
    assert not drifted, (
        f"engine stream drifted from the pinned digest in {drifted}; "
        "narrow it with data.make_engine_digests.cell_parts on both trees")


@pytest.mark.parametrize("system", sorted(PS_SYSTEMS))
def test_ps_cells_match_pinned_digests(system, pinned):
    assert fold(ps_cell_parts(system)) == pinned[f"ps/{system}"]


def test_digest_file_covers_every_cell(pinned):
    expected = {cell_key(*cell) for cell in bsp_cells()}
    expected |= {f"ps/{system}" for system in PS_SYSTEMS}
    assert set(pinned) == expected
