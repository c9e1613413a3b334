"""Canned triangulations for the command line and the test suite.

The workhorse is the boundary of the 4-simplex: five tetrahedra glued
along all ten faces, triangulating the 3-sphere with five vertices, with
the five-cycle through the vertices as Hamiltonian link, a coboundary
edge coloring and a solved charge.
"""
from __future__ import annotations

import numpy as np

from .algebra import group_inv, group_mul
from .triangulation import (
    EDGE_CORNERS, Scene, TriComplex, _glue_faces, _random_element, _tet_ends,
    find_charge, is_admissible, scene_document,
)

__all__ = ["boundary4simplex_scene", "boundary4simplex_document"]

# Seed of the vertex cochain; it makes the coloring comfortably admissible.
_SEED = 11


def boundary4simplex_scene() -> Scene:
    """The 3-sphere as the boundary of the 4-simplex, fully dressed.

    Tetrahedron p spans the vertices other than p (in increasing order)
    with orientation (-1)^p, so the five tetrahedra form a cycle.  The
    link is the cycle 0-1-2-3-4-0.  The coloring is a coboundary of a
    seeded random vertex cochain, which makes it a cocycle by construction.
    """
    tets = [tuple(v for v in range(5) if v != p) for p in range(5)]
    T = TriComplex([(-1) ** p for p in range(5)], _glue_faces(_tet_ends(tets)))
    link = frozenset(T.edge_class(p, e) for p, s in enumerate(tets)
                     for e, (a, b) in enumerate(EDGE_CORNERS)
                     if (s[b] - s[a]) % 5 in (1, 4))

    rng = np.random.default_rng(_SEED)
    h = [_random_element(rng, 0.3, 1.6, (0.6, 1.6))
         for _ in range(T.n_vertices)]
    coloring = {}
    for cls in range(T.n_edges):
        lo, hi = T.edge_ends(cls)
        coloring[cls] = group_mul(group_inv(h[lo]), h[hi])
    if not is_admissible(coloring, margin=1e-3):
        raise RuntimeError("fixture seed gives a poorly conditioned coloring")

    charge = find_charge(T, link)
    return Scene(T, link, coloring, charge)


def boundary4simplex_document() -> dict:
    return scene_document(boundary4simplex_scene())
