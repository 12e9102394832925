"""Channel trajectory tracker (Fig. 4 machinery)."""

import numpy as np
import pytest

from repro.nn import resnet20
from repro.prune import ChannelTracker, RevivalStats, prune_and_reconfigure

SMALL = dict(width_mult=0.25, input_hw=16)


class TestTracker:
    def test_records_max_abs_per_channel(self):
        m = resnet20(10, **SMALL)
        t = ChannelTracker(m.graph, ["s0b0.conv1"])
        t.record()
        mat = t.matrix("s0b0.conv1")
        node = m.graph.conv_by_name("s0b0.conv1")
        expect = np.abs(node.conv.weight.data).max(axis=(1, 2, 3))
        np.testing.assert_allclose(mat[0], expect, rtol=1e-6)

    def test_matrix_shape_grows_with_epochs(self):
        m = resnet20(10, **SMALL)
        t = ChannelTracker(m.graph, ["s0b0.conv1"])
        for _ in range(5):
            t.record()
        assert t.matrix("s0b0.conv1").shape[0] == 5

    def test_pruned_channels_carry_last_value(self):
        m = resnet20(10, **SMALL)
        name = "s0b0.conv1"
        t = ChannelTracker(m.graph, [name])
        node = m.graph.conv_by_name(name)
        k = node.conv.out_channels
        t.record()
        # sparsify channel 1 on both sides and prune
        node.conv.weight.data[1] = 0.0
        reader = m.graph.readers(node.out_space)[0]
        reader.conv.weight.data[:, 1] = 0.0
        t.record()

        def on_masks(masks):
            keep = masks[node.out_space]
            t.note_reconfigure(name, keep)

        prune_and_reconfigure(m, on_masks=on_masks)
        t.record()
        mat = t.matrix(name)
        assert mat.shape[1] == k  # original indexing preserved
        assert mat[2, 1] == mat[1, 1]  # pruned channel frozen at last value
        assert mat[2, 1] < 1e-4

    def test_revival_stats_no_revival(self):
        m = resnet20(10, **SMALL)
        name = "s0b0.conv1"
        t = ChannelTracker(m.graph, [name])
        node = m.graph.conv_by_name(name)
        t.record()
        node.conv.weight.data[2] = 0.0
        t.record()
        t.record()
        stats = t.revival_stats(name)
        assert stats.ever_sparse == 1
        assert stats.revived == 0
        assert stats.revival_rate == 0.0

    def test_revival_stats_detects_revival(self):
        m = resnet20(10, **SMALL)
        name = "s0b0.conv1"
        t = ChannelTracker(m.graph, [name])
        node = m.graph.conv_by_name(name)
        node.conv.weight.data[3] = 0.0
        t.record()
        node.conv.weight.data[3] = 0.5  # revives strongly
        t.record()
        stats = t.revival_stats(name)
        assert stats.revived == 1
        assert stats.max_post_sparse_value == pytest.approx(0.5)

    def test_empty_history(self):
        m = resnet20(10, **SMALL)
        t = ChannelTracker(m.graph, ["s0b0.conv1"])
        stats = t.revival_stats("s0b0.conv1")
        assert stats.channels == 0
        assert t.matrix("s0b0.conv1").shape[0] == 0

    def test_empty_history_stats_never_divide_by_zero(self):
        """Regression: revival_stats with no recorded intervals must return
        an empty RevivalStats whose per-interval rate is 0.0, not raise."""
        m = resnet20(10, **SMALL)
        t = ChannelTracker(m.graph, ["s0b0.conv1"])
        stats = t.revival_stats("s0b0.conv1")
        assert stats == RevivalStats(0, 0, 0, 0.0, intervals=0)
        assert stats.intervals == 0
        assert stats.revivals_per_interval == 0.0
        assert stats.revival_rate == 0.0

    def test_intervals_counted_and_rate_normalized(self):
        m = resnet20(10, **SMALL)
        name = "s0b0.conv1"
        t = ChannelTracker(m.graph, [name])
        node = m.graph.conv_by_name(name)
        node.conv.weight.data[3] = 0.0
        t.record()
        node.conv.weight.data[3] = 0.5
        t.record()
        stats = t.revival_stats(name)
        assert stats.intervals == 2
        assert stats.revivals_per_interval == pytest.approx(0.5)

