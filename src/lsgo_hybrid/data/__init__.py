"""Bundled data files: published results table and tuned parameters."""

from importlib import resources


def read_bytes(name: str) -> bytes:
    """Contents of the bundled data file `name`."""
    return resources.files(__name__).joinpath(name).read_bytes()
