"""Variational positive-unlabeled learning with an exact finite-support oracle."""

from . import autodiff, blas, data, losses, metrics, model, oracle, sampling, trainer

__version__ = "0.1.0"

__all__ = ["autodiff", "blas", "data", "losses", "metrics", "model", "oracle",
           "sampling", "trainer", "__version__"]
