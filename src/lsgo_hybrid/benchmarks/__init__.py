"""Scalable benchmark family: base functions, transforms, seeded instances."""

from .functions import BOUNDS
from .instance import (
    FUNCTION_IDS,
    BenchmarkInstance,
    from_descriptor,
    from_json,
    make_instance,
)
from .transforms import (
    conditioning_weights,
    oscillate,
    random_orthogonal,
    skew,
)

__all__ = [
    "BOUNDS",
    "FUNCTION_IDS",
    "BenchmarkInstance",
    "from_descriptor",
    "from_json",
    "make_instance",
    "conditioning_weights",
    "oscillate",
    "random_orthogonal",
    "skew",
]
