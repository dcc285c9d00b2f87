"""Scalable benchmark family: base functions, transforms, seeded instances."""

from .functions import BASE_FUNCTIONS, BOUNDS, eval_base
from .instance import (
    FUNCTION_IDS,
    BenchmarkInstance,
    Subcomponent,
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
    "BASE_FUNCTIONS",
    "BOUNDS",
    "eval_base",
    "FUNCTION_IDS",
    "BenchmarkInstance",
    "Subcomponent",
    "from_descriptor",
    "from_json",
    "make_instance",
    "conditioning_weights",
    "oscillate",
    "random_orthogonal",
    "skew",
]
