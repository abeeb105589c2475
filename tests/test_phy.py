"""Unit tests for PHY parameters and the broadcast channel."""

import numpy as np
import pytest

from repro.phy.channel import BroadcastChannel, ChannelStats, merge_stats
from repro.phy.params import (
    OFDM_54MBPS,
    PhyParams,
    SSTSP_BEACON_AIRTIME_SLOTS,
    SSTSP_BEACON_BYTES,
    TSF_BEACON_AIRTIME_SLOTS,
    TSF_BEACON_BYTES,
)


class TestPhyParams:
    def test_paper_beacon_sizes(self):
        assert TSF_BEACON_BYTES == 56
        assert SSTSP_BEACON_BYTES == 92

    def test_paper_airtimes(self):
        assert TSF_BEACON_AIRTIME_SLOTS == 4
        assert SSTSP_BEACON_AIRTIME_SLOTS == 7
        assert OFDM_54MBPS.beacon_airtime_us == pytest.approx(36.0)
        assert OFDM_54MBPS.with_beacon_airtime(7).beacon_airtime_us == pytest.approx(63.0)

    def test_ofdm_slot_time(self):
        assert OFDM_54MBPS.slot_time_us == 9.0

    def test_airtime_for_bytes(self):
        # 56 bytes at 54 Mbps = 448 bits / 54 bit/us
        assert OFDM_54MBPS.airtime_us_for_bytes(56) == pytest.approx(448 / 54)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhyParams(slot_time_us=0)
        with pytest.raises(ValueError):
            PhyParams(packet_error_rate=1.5)
        with pytest.raises(ValueError):
            PhyParams(beacon_airtime_slots=0)
        with pytest.raises(ValueError):
            PhyParams(propagation_delay_us=-1)
        with pytest.raises(ValueError):
            PhyParams(cca_us=0)


class TestBroadcastChannel:
    def test_lossless_delivery(self, rng):
        channel = BroadcastChannel(PhyParams(packet_error_rate=0.0), rng)
        got = channel.broadcast(0, [0, 1, 2, 3], true_time=0.0, size_bytes=56)
        assert got == [1, 2, 3]  # sender excluded
        assert channel.stats.deliveries == 3
        assert channel.stats.bytes_on_air == 56

    def test_per_drops_expected_fraction(self, rng):
        channel = BroadcastChannel(PhyParams(packet_error_rate=0.2), rng)
        receivers = list(range(1, 2001))
        got = channel.broadcast(0, receivers, 0.0, 56)
        ratio = len(got) / len(receivers)
        assert 0.75 < ratio < 0.85
        assert channel.stats.per_drops == len(receivers) - len(got)

    def test_jam_window_blocks_everything(self, rng):
        channel = BroadcastChannel(PhyParams(packet_error_rate=0.0), rng)
        channel.add_jam_window(100.0, 200.0)
        assert channel.is_jammed(150.0)
        assert not channel.is_jammed(200.0)  # half-open
        got = channel.broadcast(0, [1, 2], true_time=150.0, size_bytes=56)
        assert got == []
        assert channel.stats.jammed_drops == 2

    def test_jam_window_validation(self, rng):
        channel = BroadcastChannel(PhyParams(), rng)
        with pytest.raises(ValueError):
            channel.add_jam_window(5.0, 5.0)

    def test_timestamp_error_bounded(self, rng):
        phy = PhyParams(timestamp_jitter_us=2.0)
        channel = BroadcastChannel(phy, rng)
        errors = channel.sample_timestamp_errors(10_000)
        assert np.all(np.abs(errors) <= 2.0)
        assert abs(errors.mean()) < 0.1
        scalar = channel.sample_timestamp_error()
        assert abs(scalar) <= 2.0

    def test_scalar_timestamp_error_is_generator_uniform(self):
        # Same stream, same doubles as Generator.uniform(-j, j).
        phy = PhyParams(timestamp_jitter_us=2.5)
        channel = BroadcastChannel(phy, np.random.default_rng(17))
        reference = np.random.default_rng(17)
        for _ in range(20_000):
            assert channel.sample_timestamp_error() == reference.uniform(-2.5, 2.5)

    def test_zero_jitter(self, rng):
        channel = BroadcastChannel(PhyParams(timestamp_jitter_us=0.0), rng)
        assert channel.sample_timestamp_error() == 0.0
        assert np.all(channel.sample_timestamp_errors(5) == 0.0)

    def test_record_collision_counts_parties(self, rng):
        channel = BroadcastChannel(PhyParams(), rng)
        channel.record_collision(3)
        assert channel.stats.collisions == 1
        assert channel.stats.transmissions == 3

    def test_delivery_ratio(self, rng):
        stats = ChannelStats(deliveries=90, per_drops=10)
        assert stats.delivery_ratio() == pytest.approx(0.9)
        assert ChannelStats().delivery_ratio() == 1.0

    def test_merge_stats(self):
        a = ChannelStats(transmissions=1, deliveries=2, bytes_on_air=56)
        b = ChannelStats(transmissions=3, collisions=1, per_drops=4)
        total = merge_stats([a, b])
        assert total.transmissions == 4
        assert total.collisions == 1
        assert total.deliveries == 2
        assert total.per_drops == 4
        assert total.bytes_on_air == 56


class TestJamWindowIndex:
    def test_out_of_order_and_overlapping_windows(self, rng):
        channel = BroadcastChannel(PhyParams(), rng)
        # inserted out of order, with overlaps and containment
        channel.add_jam_window(500.0, 600.0)
        channel.add_jam_window(100.0, 400.0)   # long window first by start
        channel.add_jam_window(150.0, 200.0)   # contained in the previous
        channel.add_jam_window(350.0, 550.0)   # bridges two windows
        for t in (100.0, 150.0, 199.0, 250.0, 399.9, 400.0, 450.0, 599.9):
            assert channel.is_jammed(t), t
        for t in (0.0, 99.9, 600.0, 1_000.0):
            assert not channel.is_jammed(t), t

    def test_query_before_first_window(self, rng):
        channel = BroadcastChannel(PhyParams(), rng)
        channel.add_jam_window(100.0, 200.0)
        assert not channel.is_jammed(50.0)

    def test_many_windows_match_linear_scan(self, rng):
        channel = BroadcastChannel(PhyParams(), rng)
        windows = [
            (float(s), float(s + d))
            for s, d in zip(
                rng.integers(0, 10_000, size=200),
                rng.integers(1, 500, size=200),
            )
        ]
        for start, end in windows:
            channel.add_jam_window(start, end)
        for t in rng.uniform(-100, 11_000, size=500):
            expected = any(s <= t < e for s, e in windows)
            assert channel.is_jammed(float(t)) == expected, t


class TestPerOverride:
    def test_override_forces_whole_frame_loss(self, rng):
        channel = BroadcastChannel(PhyParams(packet_error_rate=0.0), rng)
        channel.set_per_override(1.0)
        assert channel.broadcast(0, [1, 2, 3], 0.0, 56) == []
        assert channel.stats.per_drops == 3
        channel.set_per_override(None)
        assert channel.broadcast(0, [1, 2, 3], 0.0, 56) == [1, 2, 3]

    def test_override_validation(self, rng):
        channel = BroadcastChannel(PhyParams(), rng)
        with pytest.raises(ValueError):
            channel.set_per_override(1.5)
        with pytest.raises(ValueError):
            channel.set_per_override(-0.1)


class TestGilbertElliott:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhyParams(loss_model="gilbert_elliott", ge_per_bad=1.5)
        with pytest.raises(ValueError):
            PhyParams(loss_model="gilbert_elliott", ge_p_good_to_bad=-0.1)
        with pytest.raises(ValueError):
            PhyParams(loss_model="weibull")

    def test_good_state_uses_base_rate(self, rng):
        phy = PhyParams(
            loss_model="gilbert_elliott",
            packet_error_rate=0.0,
            ge_p_good_to_bad=0.0,  # never leaves the good state
        )
        channel = BroadcastChannel(phy, rng)
        for _ in range(50):
            assert channel.broadcast(0, [1, 2], 0.0, 56) == [1, 2]

    def test_bad_state_loses_whole_frames(self, rng):
        phy = PhyParams(
            loss_model="gilbert_elliott",
            packet_error_rate=0.0,
            ge_p_good_to_bad=1.0,   # enters bad immediately...
            ge_p_bad_to_good=0.0,   # ...and stays there
            ge_per_bad=1.0,
        )
        channel = BroadcastChannel(phy, rng)
        for _ in range(10):
            assert channel.broadcast(0, [1, 2], 0.0, 56) == []
        assert channel.stats.per_drops == 20

    def test_burstiness_of_losses(self, rng):
        phy = PhyParams(
            loss_model="gilbert_elliott",
            packet_error_rate=0.0,
            ge_p_good_to_bad=0.05,
            ge_p_bad_to_good=0.25,
            ge_per_bad=1.0,
        )
        channel = BroadcastChannel(phy, rng)
        outcomes = [
            bool(channel.broadcast(0, [1], 0.0, 56)) for _ in range(5_000)
        ]
        losses = outcomes.count(False)
        # stationary bad-state probability = 0.05 / (0.05 + 0.25)
        assert 0.10 < losses / len(outcomes) < 0.25
        # losses cluster: the loss-after-loss rate exceeds the marginal rate
        pairs = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if not a and not b
        )
        assert pairs / max(losses, 1) > 0.4


class TestGilbertElliottStatistics:
    """Statistical validation of the burst-loss chain over 10^5 draws.

    The chain's stationary behaviour is known in closed form, so the
    empirical loss rate, the conditional bad-state loss rate, and the
    bad-state sojourn length can all be checked against analytic values
    with principled confidence bounds. The state sequence is Markov (not
    i.i.d.), so the loss-rate bound uses the effective sample size under
    the chain's lag-1 autocorrelation ``1 - p_gb - p_bg``.
    """

    N = 100_000
    P_GB = 0.02   # good -> bad (the defaults of PhyParams)
    P_BG = 0.25   # bad -> good
    PER_BAD = 0.6
    PER_GOOD = 1e-4

    @pytest.fixture
    def draws(self, rng):
        """(lost, was_bad) per transmission, one chain step each."""
        phy = PhyParams(
            loss_model="gilbert_elliott",
            packet_error_rate=self.PER_GOOD,
            ge_p_good_to_bad=self.P_GB,
            ge_p_bad_to_good=self.P_BG,
            ge_per_bad=self.PER_BAD,
        )
        channel = BroadcastChannel(phy, rng)
        lost = np.empty(self.N, dtype=bool)
        was_bad = np.empty(self.N, dtype=bool)
        for i in range(self.N):
            lost[i] = not channel.broadcast(0, [1], 0.0, 56)
            # the chain advances before the loss coin, so the state after
            # broadcast() is the state that biased this draw
            was_bad[i] = channel._ge_bad
        return lost, was_bad

    def test_loss_rate_matches_stationary_value(self, draws):
        lost, _ = draws
        pi_bad = self.P_GB / (self.P_GB + self.P_BG)
        expected = pi_bad * self.PER_BAD + (1.0 - pi_bad) * self.PER_GOOD
        # effective sample size under the chain's autocorrelation
        r = 1.0 - self.P_GB - self.P_BG
        ess = self.N * (1.0 - r) / (1.0 + r)
        se = np.sqrt(expected * (1.0 - expected) / ess)
        assert abs(lost.mean() - expected) < 6.0 * se

    def test_state_occupancy_matches_stationary_distribution(self, draws):
        _, was_bad = draws
        pi_bad = self.P_GB / (self.P_GB + self.P_BG)
        r = 1.0 - self.P_GB - self.P_BG
        ess = self.N * (1.0 - r) / (1.0 + r)
        se = np.sqrt(pi_bad * (1.0 - pi_bad) / ess)
        assert abs(was_bad.mean() - pi_bad) < 6.0 * se

    def test_conditional_loss_rate_in_bad_state(self, draws):
        lost, was_bad = draws
        bad_losses = lost[was_bad]
        # given the state, loss coins are i.i.d. Bernoulli(PER_BAD)
        se = np.sqrt(self.PER_BAD * (1.0 - self.PER_BAD) / bad_losses.size)
        assert abs(bad_losses.mean() - self.PER_BAD) < 6.0 * se
        # and the good state is near-lossless by construction
        assert lost[~was_bad].mean() < 0.005

    def test_mean_burst_length_is_geometric(self, draws):
        _, was_bad = draws
        # completed bad-state sojourns (drop a possible trailing open run)
        edges = np.flatnonzero(np.diff(was_bad.astype(np.int8)))
        runs = []
        start = None
        for i in range(1, len(was_bad)):
            if was_bad[i] and not was_bad[i - 1]:
                start = i
            elif not was_bad[i] and was_bad[i - 1] and start is not None:
                runs.append(i - start)
        assert len(runs) > 500, "need enough sojourns for a stable mean"
        runs = np.asarray(runs, dtype=float)
        mean_expected = 1.0 / self.P_BG       # geometric mean sojourn
        sd = np.sqrt(1.0 - self.P_BG) / self.P_BG
        se = sd / np.sqrt(runs.size)
        assert abs(runs.mean() - mean_expected) < 6.0 * se
        assert edges.size >= 2 * len(runs) - 2  # sanity: runs alternate
