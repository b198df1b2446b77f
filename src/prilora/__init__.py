"""Budget-preserving low-rank adapters with importance-based pruning,
plus the small training stack and experiment tooling around them.

The package root exports only ``__version__``; import everything else from
its submodule, e.g. ``from prilora.train_harness import train``.
"""

__version__ = "0.1.0"
