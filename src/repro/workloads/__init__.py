"""Workload data generators and the paper's nine evaluation problems.

Real datasets used in the paper (Cora for the GCN kernels, CIFAR-10 for the
ResNet20 layer, the 42 764-point record set for kNN) are replaced by seeded
synthetic data of the same shape -- only the memory-access structure matters
for the mapping study.

* :mod:`~repro.workloads.tensors` -- deterministic random vectors/matrices.
* :mod:`~repro.workloads.graphs`  -- synthetic CSR graphs with Cora-like shape.
* :mod:`~repro.workloads.images`  -- synthetic images / CHW feature maps.
* :mod:`~repro.workloads.points`  -- synthetic point clouds for kNN.
* :mod:`~repro.workloads.problems` -- :class:`Problem` descriptors binding a
  kernel, its input data, its global work size and a numpy reference
  implementation, at paper / bench / smoke scales.
"""

from repro.workloads.graphs import CsrGraph, cora_like_graph, synthetic_graph
from repro.workloads.images import random_feature_map, random_image
from repro.workloads.points import random_points
from repro.workloads.problems import (
    PAPER_PROBLEM_NAMES,
    Problem,
    Scale,
    available_problems,
    make_problem,
)
from repro.workloads.tensors import random_matrix, random_vector

__all__ = [
    "CsrGraph",
    "PAPER_PROBLEM_NAMES",
    "Problem",
    "Scale",
    "available_problems",
    "cora_like_graph",
    "make_problem",
    "random_feature_map",
    "random_image",
    "random_matrix",
    "random_points",
    "random_vector",
    "synthetic_graph",
]
