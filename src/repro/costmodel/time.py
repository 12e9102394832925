"""Execution-time model for training iterations on a GPU-like device.

The paper repeatedly observes that *measured* time savings lag FLOP savings:
"the measured training time reduction is smaller compared to the saved
training FLOPs ... mainly caused by the reduced data parallelism at each
layer after pruning, which decreases GPU execution resource utilization"
(Sec. 5.1).  This model reproduces that effect:

- **Convolutions are compute-bound**: time = FLOPs / (peak · utilization),
  where utilization degrades for narrow channel counts (GEMM tiles go
  unfilled) and for channel counts that are not multiples of the SIMD/tile
  width (irregular dims after pruning).
- **BatchNorm is bandwidth-bound**: time = traffic / bandwidth.
- Data-parallel runs add the allreduce time from :mod:`repro.costmodel.comm`.

Two device presets bracket the paper's hardware: a 1080 Ti-class and a
V100-class part.  The V100's much higher memory bandwidth shrinks the
BN-bound share, which is why the paper's time savings are larger on V100 —
an effect this model reproduces in Tab. 1 / Tab. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..nn.graph import ModelGraph
from .comm import CommModel, gradient_payload_bytes
from .flops import TRAINING_FLOPS_FACTOR, conv_flops
from .memory import BYTES_PER_ELEMENT, BN_TRAIN_PASSES, bn_traffic_bytes


@dataclass
class DeviceModel:
    """Throughput/bandwidth/utilization description of one accelerator."""

    name: str = "gpu"
    peak_flops: float = 11.3e12     # FLOP/s
    mem_bandwidth: float = 484e9    # bytes/s
    #: GEMM tile knee: channel counts below this leave compute units idle.
    util_knee_channels: int = 64
    #: knee on the GEMM M dimension (batch x output pixels).
    util_knee_rows: int = 4096
    #: SIMD lane width; non-multiples pay a padding penalty.
    simd_width: int = 8
    #: fixed per-layer launch overhead (kernel launches, etc.)
    layer_overhead: float = 5e-6

    def utilization(self, c_in: int, c_out: int, rows: int) -> float:
        """Fraction of peak FLOPs achieved by a conv with these dims."""
        u_k = min(1.0, c_out / self.util_knee_channels) ** 0.5
        u_c = min(1.0, c_in / self.util_knee_channels) ** 0.25
        u_m = min(1.0, rows / self.util_knee_rows) ** 0.5
        util = 0.85 * u_k * u_c * u_m
        # Irregular (non-SIMD-multiple) channel dims waste lanes: effective
        # work is padded up to the next multiple of the SIMD width.
        w = self.simd_width
        util *= c_out / (-(-c_out // w) * w)
        util *= c_in / (-(-c_in // w) * w)
        return max(util, 1e-3)


GTX_1080TI = DeviceModel("1080ti", peak_flops=11.3e12, mem_bandwidth=484e9)
TITAN_XP = DeviceModel("titanxp", peak_flops=12.1e12, mem_bandwidth=548e9)
V100 = DeviceModel("v100", peak_flops=15.7e12, mem_bandwidth=900e9)

DEVICES: Dict[str, DeviceModel] = {
    "1080ti": GTX_1080TI, "titanxp": TITAN_XP, "v100": V100,
}


@dataclass
class TimeBreakdown:
    """Seconds per training iteration, by component."""

    conv_time: float = 0.0
    bn_time: float = 0.0
    comm_time: float = 0.0
    overhead: float = 0.0

    @property
    def total(self) -> float:
        return self.conv_time + self.bn_time + self.comm_time + self.overhead


def iteration_time(graph: ModelGraph, batch_per_worker: int,
                   device: DeviceModel, workers: int = 1,
                   comm: Optional[CommModel] = None,
                   training: bool = True) -> TimeBreakdown:
    """Modelled wall-clock of one iteration (per worker)."""
    bd = TimeBreakdown()
    factor = TRAINING_FLOPS_FACTOR if training else 1.0
    for node in graph.active_convs():
        k, c = node.conv.weight.data.shape[:2]
        rows = batch_per_worker * node.out_hw * node.out_hw
        fl = conv_flops(node) * batch_per_worker * factor
        util = device.utilization(c, k, rows)
        bd.conv_time += fl / (device.peak_flops * util)
        bd.overhead += device.layer_overhead * (3 if training else 1)
    bd.bn_time = bn_traffic_bytes(graph, batch_per_worker, training) \
        / device.mem_bandwidth
    for lin in graph.linears:
        fl = 2.0 * lin.linear.in_features * lin.linear.out_features \
            * batch_per_worker * factor
        bd.conv_time += fl / (device.peak_flops * 0.5)
    if training and workers > 1:
        comm = comm or CommModel()
        bd.comm_time = comm.allreduce_time(
            gradient_payload_bytes(graph), workers)
    return bd


def epoch_time(graph: ModelGraph, dataset_size: int, batch_per_worker: int,
               device: DeviceModel, workers: int = 1,
               comm: Optional[CommModel] = None) -> float:
    """Modelled seconds per training epoch."""
    global_batch = batch_per_worker * workers
    iters = (dataset_size + global_batch - 1) // global_batch
    return iters * iteration_time(graph, batch_per_worker, device, workers,
                                  comm).total
