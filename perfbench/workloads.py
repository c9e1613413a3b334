"""The four benchmark workloads and the output check of every op.

A workload is built once per process from the run seed (its set-up) and
then hands out rounds, under its own memory budget ``BUDGET_MB``: round
``i`` is a list of ops, the same for a given seed and ``i``.  An op runs
one request through a public entry point of the package and checks its
output.  It returns normally on success, raises :class:`WrongOutput` when
the program answered wrongly, and lets any other exception through as a
failure: ``MemoryError`` above all, which the greedy contraction raises
for inputs over the memory budget, and :class:`Refused` for a request the
program reports it could not satisfy.

The package is always reached through module attributes
(``cli.main``, ``triangulation.find_charge``, ...) so that a traced run,
which rebinds those attributes, sees every call.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cyclic6j import cli
from cyclic6j import triangulation as tri

from walks import UP, Walk

FIXTURE = Path("fixtures") / "boundary4simplex.json"

# |K| N^2 = 1 holds to ~1e-15 at every N and size measured so far
MODULUS_TOL = 1e-9


class WrongOutput(Exception):
    """The program completed but its output fails the check."""


class Refused(Exception):
    """The program exited non-zero and said why: a failed op, not a wrong
    answer."""


@dataclass
class Op:
    """One request: ``run()`` performs and checks it.

    ``run`` returns ``(N, reduced_arg)`` for an invariant, else ``None``.
    """

    label: str
    run: Callable[[], tuple[int, float] | None]


@dataclass
class Context:
    root: Path        # checkout root: holds src/, fixtures/ and perfbench/
    work: Path        # scratch directory for generated documents
    seed: int
    # walk refusals: move kind -> outcome ("ok" or exception name) -> count
    tally: dict = field(default_factory=dict)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _sub_seed(*key: int) -> int:
    return int(_rng(*key).integers(2**31))


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cyclic6j.cli.main`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse rejects arguments
            code = exc.code if isinstance(exc.code, int) else 2
    if code == 2:
        raise RuntimeError(f"exit 2: {err.getvalue().strip()[:200]}")
    return code, out.getvalue()


def _add_tally(ctx: Context, walk: Walk) -> None:
    for kind, counts in walk.tally.items():
        for key, n in counts.items():
            ctx.tally.setdefault(kind, {}).setdefault(key, 0)
            ctx.tally[kind][key] += n


def emit_document(scene: tri.Scene) -> dict:
    """A walked scene as a JSON document, checked to reload with the same
    number of tetrahedra and a charge that passes ``validate_charge``."""
    doc = json.loads(json.dumps(tri.scene_document(scene)))
    try:
        back = tri.load_document(doc)
        if back.charge is None or back.complex.n_tets != scene.complex.n_tets:
            raise WrongOutput("the emitted document lost its charge or "
                              "tetrahedra")
        tri.validate_charge(back.complex, back.link, back.charge)
    except tri.TopologyError as exc:
        raise WrongOutput(f"the emitted document does not reload: {exc}") \
            from exc
    return doc


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


def _reference_record(ctx: Context, N: int) -> Path:
    """The fixture's invariant at N as a record for ``--baseline``.

    The boundary of the 4-simplex with its 5-cycle link has the invariant
    1/N^2 up to a power of qtilde (measured for N = 3..13), so the exact
    value serves at every N, including those the greedy contraction cannot
    finish.
    """
    return _write_json(ctx.work / f"reference_N{N}.json",
                       {"N": N, "value": [1.0 / N**2, 0.0]})


def invariant_op(label: str, doc: Path, N: int, reference: Path) -> Op:
    """``invariant DOC --N N --baseline REF``, checked for |K| N^2 = 1 and
    equality with the reference mod qtilde; ``reduced_arg`` is returned,
    not checked (its branch cut is a known defect)."""
    argv = ["invariant", str(doc), "--N", str(N), "--baseline", str(reference)]

    def run() -> tuple[int, float]:
        code, out = call_cli(argv)
        lines = out.splitlines()
        if code != 0 or len(lines) != 2 \
                or not lines[1].startswith("baseline: equal mod qtilde"):
            raise WrongOutput(f"exit {code}: {out.strip()[-200:]}")
        record = json.loads(lines[0])
        if abs(record["modulus"] * N * N - 1.0) > MODULUS_TOL:
            raise WrongOutput(f"|K| N^2 = {record['modulus'] * N * N!r}")
        return N, float(record["reduced_arg"])
    return Op(label, run)


def verify_op(level: str, N: int, seed: int, extra: tuple[str, ...]) -> Op:
    """``verify --level LEVEL --N N --seed SEED``; needs exit 0 and PASS.

    Exit 1 with a ``FAIL`` line is the suite reporting identities outside
    their tolerance: a failed op, like any other non-zero exit.
    """
    argv = ["verify", "--level", level, "--N", str(N), "--seed", str(seed),
            *extra]

    def run() -> None:
        code, out = call_cli(argv)
        last = out.rstrip().rsplit("\n", 1)[-1]
        if code == 1 and last.startswith("FAIL "):
            raise Refused(last[:200])
        if code != 0 or not last.startswith("PASS "):
            raise WrongOutput(f"exit {code}: {last[:200]}")
    return Op(f"verify-{level}-N{N}", run)


class FixtureSweep:
    """The paper's fixture across N: few tetrahedra, large N."""

    NS = (3, 5, 7, 9)
    # Address-space budget of the process.  At N = 7 and 9 the greedy
    # contraction runs until an allocation passes it, so its share of the
    # round is not cut short by a small budget.
    BUDGET_MB = 1024

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        doc = ctx.root / FIXTURE
        self.ops = [invariant_op(f"fixture-N{N}", doc, N,
                                 _reference_record(ctx, N)) for N in self.NS]

    def warm_up(self) -> None:
        self.ops[0].run()

    def round(self, i: int) -> list[Op]:
        order = _rng(self.ctx.seed, 1, i).permutation(len(self.ops))
        return [self.ops[k] for k in order]


class GrownS3:
    """S^3 documents grown from the fixture by seeded pachner+/bubble+
    walks: many tetrahedra at N = 3."""

    N = 3
    # Python with numpy maps ~110 MB, which leaves ~210 MB: room for the
    # largest intermediate the greedy contraction completes (156 MB, the
    # fixture at N = 5) but not for a 3^15-entry one (229 MB), so peak
    # RSS does not hinge on how far a doomed contraction gets.
    BUDGET_MB = 320
    # Walks per size.  Whether the greedy contraction fits the budget, and
    # what it costs, depends on the walk.  So the walks are the same for
    # every run seed, and a round is one pass over all of them in an order
    # the seed sets: every run then measures the same mix.  With walks
    # drawn per seed, goodput over ten seeds spread by about 0.2, as each
    # seed drew a different mix of documents that fit.
    WALKS = {10: 16, 20: 16, 40: 16}

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        base = tri.load_document(json.loads((ctx.root / FIXTURE).read_text()))
        reference = _reference_record(ctx, self.N)
        self.ops: list[Op] = []
        for size, count in self.WALKS.items():
            for w in range(count):
                walk = Walk(base, [2, size, w])
                doc = emit_document(walk.grow(size))
                path = _write_json(ctx.work / f"grown_{size}_{w}.json", doc)
                self.ops.append(invariant_op(f"grown-{size}", path, self.N,
                                             reference))
                _add_tally(ctx, walk)
        self.warm = invariant_op("fixture-N3", ctx.root / FIXTURE, self.N,
                                 reference)

    def warm_up(self) -> None:
        self.warm.run()

    def round(self, i: int) -> list[Op]:
        order = _rng(self.ctx.seed, 2, i).permutation(len(self.ops))
        return [self.ops[k] for k in order]


class VerifySuites:
    """The four identity suites at the sizes ROADMAP names."""

    BUDGET_MB = 1024
    # sixj at N = 7, not 9: a round then takes ~3.5 s instead of ~7.5 s,
    # and a run holds enough rounds for a steady median
    SUITES = (("sixj", 7, ("--trials", "3")), ("algebra", 9, ()),
              ("operators", 5, ()), ("moves", 3, ()))

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def warm_up(self) -> None:
        verify_op("algebra", 3, 0, ("--trials", "1")).run()

    def round(self, i: int) -> list[Op]:
        return [verify_op(level, N, _sub_seed(self.ctx.seed, 3, i), extra)
                for level, N, extra in self.SUITES]


class MoveWalk:
    """Excursions of all four moves from the fixture up to ~60 tetrahedra
    and back down, with periodic document round trips and a charge solve
    at the top; no state sum."""

    BUDGET_MB = 1024
    TOP, BOTTOM = 60, 10
    PATIENCE = 50        # refused negative moves in a row that end the descent
    # Excursions per round.  Their walks are the same for every run seed,
    # which sets their order in the round, so every run measures the same
    # excursions and the figures vary only with the machine.
    EXCURSIONS = 8

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.base = tri.load_document(
            json.loads((ctx.root / FIXTURE).read_text()))

    def excursion(self, key: list[int], n_tets: int = TOP) -> None:
        walk = Walk(self.base, key)
        top = walk.grow(n_tets, UP, emit_document)
        T = top.complex
        charge = tri.find_charge(T, top.link)
        try:
            tri.validate_charge(T, top.link, charge)
        except tri.TopologyError as exc:
            raise WrongOutput(f"find_charge: {exc}") from exc
        emit_document(top)
        end = walk.shrink(self.BOTTOM, self.PATIENCE, emit_document)
        emit_document(end)
        _add_tally(self.ctx, walk)

    def warm_up(self) -> None:
        # short and the same for every seed, so that set-up time does not
        # hinge on one random excursion
        self.excursion([4], 20)

    def round(self, i: int) -> list[Op]:
        order = _rng(self.ctx.seed, 5, i).permutation(self.EXCURSIONS)
        return [Op("excursion", lambda k=int(k): self.excursion([5, k]))
                for k in order]


REGISTRY = {
    "fixture_sweep": FixtureSweep,
    "grown_s3": GrownS3,
    "verify_suites": VerifySuites,
    "move_walk": MoveWalk,
}
