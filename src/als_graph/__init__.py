"""Adaptive label smoothing for mini-batch training on graphs.

Sub-graph samplers bias the label distribution inside each batch; training on
those batches with plain cross-entropy drives over-confident predictions.
This package provides the pieces to measure that effect and to counter it:
sparse graph kernels, residual label propagation, three batch samplers, a
learned label-refinement loss with pacing schedules, a small GCN/MLP with
exact hand-derived gradients, and an experiment harness with a CLI.

Each module's ``__all__`` is what the package exports.
"""

from . import data, graph, harness, metrics, model, propagation, reporting, sampling, smoothing
from .data import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .propagation import *  # noqa: F401,F403
from .reporting import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .smoothing import *  # noqa: F401,F403

__all__ = [name for module in (data, graph, harness, metrics, model, propagation, reporting,
                               sampling, smoothing) for name in module.__all__]
