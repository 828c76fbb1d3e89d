"""Line cluster embeddings of signed graphs: verifier, exact solvers, a
fast route for complete instances, reduction chain and text formats."""

from .core import (
    Ordering,
    SignedGraph,
    Violation,
    build_signed_graph,
    is_complete,
    positive_part,
    verify_embedding,
)
from .intervals import (
    IntervalModel,
    ordering_to_model,
    recognize_proper_interval,
    solve_complete,
)
from .solvers import solve_bruteforce, solve_subset_dp

__version__ = "0.1.0"

__all__ = [
    "IntervalModel",
    "Ordering",
    "SignedGraph",
    "Violation",
    "build_signed_graph",
    "is_complete",
    "ordering_to_model",
    "positive_part",
    "recognize_proper_interval",
    "solve_bruteforce",
    "solve_complete",
    "solve_subset_dp",
    "verify_embedding",
    "__version__",
]
