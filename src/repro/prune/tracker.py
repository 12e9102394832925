"""Channel weight-trajectory tracking (the Fig. 4 revival study).

Records, per tracked convolution and per epoch, the maximum absolute weight
of each *output channel*.  The paper plots these trajectories to show that
once group lasso drives a channel below the pruning threshold it essentially
never revives — the observation that justifies pruning early during training
instead of keeping sparsified channels around like SSL does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn.graph import ModelGraph
from .sparsity import DEFAULT_THRESHOLD


@dataclass
class RevivalStats:
    """Summary of channel revival behaviour for one conv."""

    channels: int
    ever_sparse: int        # channels that dipped below threshold at least once
    revived: int            # of those, how many later exceeded revive_level
    max_post_sparse_value: float  # largest value any sparse channel reached later
    intervals: int = 0      # recorded epochs the stats were computed over

    @property
    def revival_rate(self) -> float:
        return self.revived / self.ever_sparse if self.ever_sparse else 0.0

    @property
    def revivals_per_interval(self) -> float:
        """Revivals normalized by recorded intervals (0.0 when none yet)."""
        if self.intervals <= 0:
            return 0.0
        return self.revived / self.intervals


class ChannelTracker:
    """Tracks per-output-channel max|w| across epochs for selected convs.

    Channel *identity* is maintained across reconfigurations: surgery removes
    channels, so the tracker records values into the positions of the
    original channel indexing (pruned channels keep their last value, which
    is below threshold by construction — matching the white regions of the
    paper's heatmaps).
    """

    def __init__(self, graph: ModelGraph, conv_names: Sequence[str]):
        self.graph = graph
        self.conv_names = list(conv_names)
        #: conv name -> list of per-epoch (K0,) arrays in original indexing
        self.history: Dict[str, List[np.ndarray]] = {n: [] for n in conv_names}
        #: conv name -> current original-index positions of surviving channels
        self._alive_idx: Dict[str, np.ndarray] = {}
        self._orig_k: Dict[str, int] = {}
        for name in conv_names:
            node = graph.conv_by_name(name)
            k = node.conv.weight.data.shape[0]
            self._alive_idx[name] = np.arange(k)
            self._orig_k[name] = k

    def note_reconfigure(self, name: str, out_keep: np.ndarray) -> None:
        """Inform the tracker that ``out_keep`` (bool over current channels)
        survived a reconfiguration of conv ``name``."""
        self._alive_idx[name] = self._alive_idx[name][out_keep]

    def record(self) -> None:
        """Capture the current epoch's per-channel max|w| for every conv."""
        for name in self.conv_names:
            node = self.graph.conv_by_name(name)
            k0 = self._orig_k[name]
            row = np.zeros(k0, dtype=np.float64)
            if self.history[name]:
                row[:] = self.history[name][-1]  # carry pruned channels' last value
            active = self.graph._active(node)
            if active and node.conv is not None and \
                    getattr(node.conv, "weight", None) is not None:
                w = np.abs(node.conv.weight.data)
                if w.shape[0] == self._alive_idx[name].size:
                    row[self._alive_idx[name]] = w.max(axis=(1, 2, 3))
            self.history[name].append(row)

    def matrix(self, name: str) -> np.ndarray:
        """History as an ``(epochs, K0)`` array (the Fig. 4 heatmap)."""
        return np.stack(self.history[name]) if self.history[name] \
            else np.zeros((0, self._orig_k[name]))

    def revival_stats(self, name: str,
                      threshold: float = DEFAULT_THRESHOLD,
                      revive_factor: float = 10.0) -> RevivalStats:
        """Quantify revivals: sparse channels later exceeding
        ``revive_factor * threshold``."""
        m = self.matrix(name)
        if m.size == 0:
            # No recorded intervals yet: an empty RevivalStats, never a
            # divide-by-zero (revivals_per_interval guards intervals == 0).
            return RevivalStats(0, 0, 0, 0.0, intervals=0)
        epochs, k = m.shape
        ever_sparse = 0
        revived = 0
        max_post = 0.0
        for ch in range(k):
            traj = m[:, ch]
            below = np.flatnonzero(traj < threshold)
            if below.size == 0:
                continue
            ever_sparse += 1
            after = traj[below[0]:]
            peak = float(after.max())
            max_post = max(max_post, peak)
            if peak > revive_factor * threshold:
                revived += 1
        return RevivalStats(k, ever_sparse, revived, max_post,
                            intervals=epochs)

