"""Seeded random walks of local moves on a charged, colored triangulation.

A walk only calls the public move functions of ``cyclic6j.triangulation``.
Each step picks a move kind and a random target cell; a move that does not
apply there raises one of the package's errors, which the walk tallies by
exception type and skips.  Functions are looked up on the module at call
time, so a traced run sees every call.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np

from cyclic6j import triangulation as tri
from cyclic6j.algebra import AlgebraError

ALL_MOVES = ("pachner+", "pachner-", "bubble+", "bubble-")
# growing walks: positive moves only
GROW = ("pachner+", "bubble+")
# excursions up: three positive draws to one negative, so the walk grows
# while still exercising every move
UP = ("pachner+", "bubble+") * 3 + ("pachner-", "bubble-")
DOWN = ("pachner-", "bubble-")
EMIT_EVERY = 10         # applied moves between scenes handed to ``emit``
MAX_ATTEMPTS = 10_000   # a growing walk that needs more is stuck


def _apply(kind: str, scene: tri.Scene, rng: np.random.Generator) -> tri.Scene:
    T = scene.complex
    t = int(rng.integers(T.n_tets))
    if kind == "pachner+":
        return tri.pachner_plus(scene, t, int(rng.integers(4)))
    if kind == "pachner-":
        return tri.pachner_minus(scene, t, int(rng.integers(6)))
    if kind == "bubble+":
        return tri.bubble_plus(scene, t, int(rng.integers(4)))
    return tri.bubble_minus(scene, int(rng.integers(T.n_vertices)))


class Walk:
    """A walk in progress: the current scene, its RNG and the tallies.

    ``tally[kind]`` counts applied moves under ``"ok"`` and refusals under
    the name of the exception the move raised.  ``seed`` is anything
    ``numpy.random.default_rng`` accepts.
    """

    def __init__(self, scene: tri.Scene, seed) -> None:
        self.scene = scene
        self.rng = np.random.default_rng(seed)
        self.tally: dict[str, Counter] = {k: Counter() for k in ALL_MOVES}

    def step(self, kinds) -> bool:
        """Attempt one move of a kind drawn from ``kinds``; True if applied."""
        kind = kinds[int(self.rng.integers(len(kinds)))]
        try:
            self.scene = _apply(kind, self.scene, self.rng)
        except (tri.TopologyError, AlgebraError) as exc:
            self.tally[kind][type(exc).__name__] += 1
            return False
        self.tally[kind]["ok"] += 1
        return True

    def grow(self, n_tets: int, kinds=GROW,
             emit: Callable[[tri.Scene], object] | None = None) -> tri.Scene:
        """Step until the scene has at least ``n_tets`` tetrahedra.

        ``emit`` receives the scene after every ``EMIT_EVERY``-th applied
        move.
        """
        applied = 0
        for _ in range(MAX_ATTEMPTS):
            if self.scene.complex.n_tets >= n_tets:
                return self.scene
            if self.step(kinds):
                applied += 1
                if emit is not None and applied % EMIT_EVERY == 0:
                    emit(self.scene)
        raise RuntimeError(f"walk did not reach {n_tets} tetrahedra")

    def shrink(self, n_tets: int, patience: int,
               emit: Callable[[tri.Scene], object] | None = None) -> tri.Scene:
        """Apply negative moves until at most ``n_tets`` tetrahedra remain or
        ``patience`` attempts in a row are refused (random targets rarely
        find the last removable cells)."""
        applied = refused = 0
        while self.scene.complex.n_tets > n_tets and refused < patience:
            if self.step(DOWN):
                applied += 1
                refused = 0
                if emit is not None and applied % EMIT_EVERY == 0:
                    emit(self.scene)
            else:
                refused += 1
        return self.scene
