"""Bernstein and Bernstein-Stancu operators on [0, 1]: numerically stable
evaluation, node geometry checks, modulus-of-continuity error bounds and
figure reproduction.

The package re-exports the public names of ``operators``, ``nodes`` and
``bounds``; each module's ``__all__`` is the one list of them."""

from . import bounds, nodes, operators
from .bounds import *  # noqa: F403
from .nodes import *  # noqa: F403
from .operators import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*operators.__all__, *nodes.__all__, *bounds.__all__]
