"""Replay one seeded walk of all four moves up to 400 tetrahedra and check
every move against the whole complex.

    PYTHONPATH=src python tests/long_walk.py [--seed S] [--top N]

After every applied move the complex a move derives from its parent must
equal a full ``TriComplex`` rebuild of its own gluings, its vertex and
edge classes must be those of the union-find oracle (the rebuild runs the
same builder as the move, the oracle does not), and the full
``validate_link``, ``validate_charge`` and ``_check_cocycle`` must pass.
Too slow for the test suite; CI runs it as a step of its own.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_triangulation import (  # noqa: E402
    _assert_oracle_classes, _assert_same_scene, _excursion,
)

from cyclic6j.triangulation import (  # noqa: E402
    Scene, TriComplex, _check_cocycle, validate_charge, validate_link,
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=26)
    p.add_argument("--top", type=int, default=400)
    args = p.parse_args(argv)
    applied = Counter()
    for kind, scene in _excursion(args.seed, top=args.top, bottom=args.top):
        if not isinstance(scene, Scene):
            continue
        T = scene.complex
        full = TriComplex(T.orientations, T.gluings).with_vertex_ranks(
            T.vertex_rank)
        _assert_same_scene(scene, Scene(full, scene.link, scene.coloring,
                                        scene.charge))
        _assert_oracle_classes(T)
        validate_link(full, scene.link)
        validate_charge(full, scene.link, scene.charge)
        _check_cocycle(full, scene.coloring)
        applied[kind] += 1
    if T.n_tets < args.top:
        print(f"the walk stopped at {T.n_tets} tetrahedra", file=sys.stderr)
        return 1
    print(f"{sum(applied.values())} moves up to {T.n_tets} tetrahedra match "
          f"the full rebuild and the union-find oracle: {dict(applied)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
