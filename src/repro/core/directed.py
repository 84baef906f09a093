"""Directed-graph extension of VEND — Appendix E.3 style.

The paper's storage setting already treats adjacency as undirected
("the adjacent list of each vertex contains both in and out
neighbors"), so the directed extension wraps any undirected VEND
solution around the projection: if no undirected edge connects
``(u, v)``, then neither directed edge ``u→v`` nor ``v→u`` exists, and
both directed queries can be filtered.  A directed query that survives
the filter still executes against storage, which resolves direction.
"""

from __future__ import annotations

from ..graph import DiGraph
from .base import VendSolution

__all__ = ["DirectedVend"]


class DirectedVend:
    """Directed NEpair determination over an undirected VEND solution.

    Parameters
    ----------
    base:
        Any (unbuilt) :class:`~repro.core.base.VendSolution`; it is
        built over the undirected projection of the directed graph.
    """

    def __init__(self, base: VendSolution):
        self.base = base
        self.name = f"directed-{base.name}"

    def build(self, digraph: DiGraph) -> None:
        """Encode the undirected projection of ``digraph``."""
        self.base.build(digraph.as_undirected())

    def is_nonedge(self, u: int, v: int) -> bool:
        """True only if the *directed* edge ``u→v`` certainly misses.

        Sound because the base solution certifies that no undirected
        edge exists, which subsumes both directions.
        """
        return self.base.is_nonedge(u, v)

    def is_nonedge_batch(self, pairs_u, pairs_v=None):
        """Vectorized directed NDF: delegates to the base solution."""
        return self.base.is_nonedge_batch(pairs_u, pairs_v)

    def batch_snapshot(self):
        """The base solution's batch snapshot, made current."""
        return self.base.batch_snapshot()

    def memory_bytes(self) -> int:
        return self.base.memory_bytes()
