"""Analytic cost models: FLOPs, memory, communication, execution time."""

from .comm import (CommModel, epoch_comm_bytes, gradient_payload_bytes,
                   hierarchical_allreduce_bytes, hierarchical_interlink_bytes,
                   ring_allreduce_bytes)
from .flops import (TRAINING_FLOPS_FACTOR, conv_dims_gating, conv_dims_union,
                    conv_flops, inference_flops, per_layer_inference_flops,
                    training_flops_per_sample)
from .memory import (BYTES_PER_ELEMENT, MemoryModel,
                     activation_bytes_per_sample, bn_traffic_bytes,
                     iteration_memory_bytes, model_state_bytes)
from .time import (DEVICES, GTX_1080TI, TITAN_XP, V100, DeviceModel,
                   TimeBreakdown, epoch_time, iteration_time)

__all__ = [
    "conv_flops", "inference_flops", "training_flops_per_sample",
    "conv_dims_union", "conv_dims_gating", "per_layer_inference_flops",
    "TRAINING_FLOPS_FACTOR",
    "MemoryModel", "activation_bytes_per_sample", "iteration_memory_bytes",
    "model_state_bytes", "bn_traffic_bytes", "BYTES_PER_ELEMENT",
    "CommModel", "gradient_payload_bytes", "ring_allreduce_bytes",
    "hierarchical_allreduce_bytes", "hierarchical_interlink_bytes",
    "epoch_comm_bytes",
    "DeviceModel", "TimeBreakdown", "iteration_time", "epoch_time",
    "DEVICES", "GTX_1080TI", "TITAN_XP", "V100",
]
