"""Disorder chaos numerics for short-range spin glasses on hypergraphs.

Every name is imported from its module (`from spinchaos.hypergraph import
Hypergraph`); the package itself holds only `__version__`.
"""

__version__ = "0.1.0"
