"""Unit tests for repro.ps.consistency (BSP/SSP/ASP admission rules)."""

import pytest

from repro.ps.consistency import ASP, BSP, SSP


class TestBSP:
    def test_blocks_on_slowest_peer(self):
        bsp = BSP()
        # Worker wants step 1; peers finished step 0 at times 2.0 and 5.0.
        release = bsp.release_time(1, own_ready=1.0,
                                   peer_finish_times=[[2.0], [5.0]])
        assert release == 5.0

    def test_first_step_never_blocks(self):
        bsp = BSP()
        assert bsp.release_time(0, 0.0, [[], []]) == 0.0

    def test_raises_when_peer_lags_too_far(self):
        bsp = BSP()
        with pytest.raises(ValueError, match="peer"):
            bsp.release_time(2, 0.0, [[1.0], []])


class TestSSP:
    def test_allows_bounded_lead(self):
        ssp = SSP(staleness=2)
        # Step 2 with staleness 2 requires peers at step -1 => no block.
        assert ssp.release_time(2, 3.0, [[1.0], [9.0]]) == 3.0

    def test_blocks_past_staleness(self):
        ssp = SSP(staleness=1)
        # Step 2 requires every peer to have finished step 0.
        release = ssp.release_time(2, 3.0, [[4.0, 6.0], [7.0, 8.0]])
        assert release == 7.0

    def test_staleness_zero_equals_bsp(self):
        ssp = SSP(staleness=0)
        bsp = BSP()
        peers = [[2.0], [5.0]]
        assert ssp.release_time(1, 1.0, peers) == (
            bsp.release_time(1, 1.0, peers))

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            SSP(staleness=-1)


class TestASP:
    def test_never_blocks(self):
        asp = ASP()
        assert asp.release_time(100, 3.5, [[1.0] * 5, []]) == 3.5
