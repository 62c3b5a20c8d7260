"""Banded local attention with a blocked kernel, verified against full attention.

The package builds up in layers: dense tensor kernels with an operation
counter (:mod:`localattn.tensor`, also the eager ``ops`` backend), a
recording autodiff tape over the same vocabulary
(:mod:`localattn.autodiff`), full attention and the banded
mask (:mod:`localattn.attention`), the block-decomposed local kernel
(:mod:`localattn.lam`), a small encoder-decoder forecaster
(:mod:`localattn.model`), series synthesis and windowing
(:mod:`localattn.data`), and a CLI (``localattn``).
"""

from .tensor import DegenerateRowError, DimensionError, Tensor
from .autodiff import Graph, GraphContractError, Node, finite_diff_grad

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "DimensionError",
    "DegenerateRowError",
    "Graph",
    "GraphContractError",
    "Node",
    "finite_diff_grad",
    "__version__",
]
