"""Command line interface: verification suites, invariants, moves, reports.

Four verification suites drive the residual identities of the library
modules over a seeded RNG; the remaining subcommands operate on
triangulation documents (JSON).  Exit codes: 0 success, 1 verification
failure, 2 input error, including input too large to compute in memory.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np
from numpy.linalg import norm

from . import operators
from .algebra import (
    AlgebraError, GroupElement, RootData, _powers, clock_shift, coords,
    duality_b, duality_d, group_inv, group_mul, intertwiner_S,
    psi_coeffs, psi_coeffs_product, random_admissible_pair, rep_matrices,
)
from .fixtures import boundary4simplex_scene
from .operators import _scalar_split, assemble_q, op_word, q_scalar
from .sixj import (
    LabelSix, _inversion_defect, check_charged_inversion,
    check_charged_pentagon, check_symmetry_relations,
    check_uncharged_symmetries, pentagon_labels, sixj_neg, sixj_pos,
)
from .statesum import (
    MAX_ENTRIES, InvariantError, equal_mod_qtilde, invariant_record,
    mod_qtilde_residual, state_sum,
)
from .triangulation import (
    FACE_CORNERS, BadColoring, Scene, TopologyError, _EDGE_INDEX,
    _random_element, _real, bubble_minus, bubble_plus, deform_charge,
    find_charge, gauge_transform, is_admissible, load_document,
    make_admissible, pachner_minus, pachner_plus, point_gauge, random_gauge,
    scene_document,
)

__all__ = [
    "main", "run_suite", "suite_algebra", "suite_operators", "suite_sixj",
    "suite_moves", "SUITE_LEVELS",
]


class _Rows(dict):
    """Identity name -> (name, worst residual, bound, kind), first seen first;
    kind "max" bounds a residual above, "min" a negative control below."""

    def rec(self, name: str, value: float, bound: float,
            kind: str = "max") -> None:
        value = float(value)
        if name in self:
            _, old, bound, kind = self[name]
            value = max(old, value) if kind == "max" else min(old, value)
        self[name] = (name, value, float(bound), kind)


def _row_ok(row: tuple[str, float, float, str]) -> bool:
    _, value, bound, kind = row
    return value <= bound if kind == "max" else value >= bound


def _block_diff(f, g) -> float:
    if f.swaps_parts != g.swaps_parts:
        return float("inf")
    return max(norm(f.check_mat - g.check_mat), norm(f.hat_mat - g.hat_mat))


def suite_algebra(root: RootData, rng: np.random.Generator, trials: int,
                  tol: float, tol_strict: float) -> list:
    """Coordinate identities, psi oracle, duality zig-zags, intertwiner.

    The functional equation evaluates ``Psi(M) = sum_m psi_m (eps M)**m``
    at ``M = E`` and ``M = w E``, for the constant ``E = -(Y^-1 X) (x) Y``.
    The powers ``(eps E)**m``, m = 0..N-1, are stacked once per call, so
    each trial's ``Psi(E)`` and ``Psi(w E)`` are one contraction of its
    psi row, as it stands and times ``w**m``, against the stack.
    """
    N = root.N
    rows = _Rows()
    I_N = np.eye(N)
    X, Y = clock_shift(root)
    E = -np.kron(np.linalg.inv(Y) @ X, Y)
    powers = np.empty((N, N * N, N * N), dtype=complex)
    powers[0] = np.eye(N * N)
    for m in range(1, N):
        powers[m] = powers[m - 1] @ (root.eps * E)
    w_m = _powers(root)

    for _ in range(trials):
        g, h = random_admissible_pair(root, rng)
        gh = group_mul(g, h)
        gi = group_inv(g)
        cg, ch, cgh, cgi = (coords(root, e) for e in (g, h, gh, gi))
        rows.rec("u_multiplicative", abs(cgh.u - cg.u * ch.u), tol_strict)
        rows.rec("u_inverse", abs(cgi.u - 1.0 / cg.u), tol_strict)
        rows.rec("v_inverse", abs(cgi.v - root.eps * cg.v / cg.u),
                 tol_strict)

        psis = psi_coeffs(root, g, h)
        rows.rec("psi_product_oracle",
                 np.max(np.abs(psis - psi_coeffs_product(root, g, h))), tol_strict)
        psi_E, psi_wE = (np.tensordot(p, powers, axes=1)
                         for p in (psis, psis * w_m))
        lhs = psi_wE @ np.linalg.inv(psi_E)
        rhs = (cg.v * np.eye(N * N) - cg.u * ch.v * E) / cgh.v
        rows.rec("functional_equation", norm(lhs - rhs), tol)

        S = intertwiner_S(root, g, h)
        Ag, Bg = rep_matrices(root, g)
        Ah, Bh = rep_matrices(root, h)
        Agh, Bgh = rep_matrices(root, gh)
        da = np.kron(Ag, Ah)
        db = np.kron(Ag, Bh) + np.kron(Bg, I_N)
        rows.rec("intertwiner_a", norm(da @ S - S @ np.kron(Agh, I_N)), tol)
        rows.rec("intertwiner_b", norm(db @ S - S @ np.kron(Bgh, I_N)), tol)

        d_g = duality_d(root, g).reshape(1, -1)
        d_gi = duality_d(root, gi).reshape(1, -1)
        b_g = duality_b(root, g).reshape(-1, 1)
        b_gi = duality_b(root, gi).reshape(-1, 1)
        left = np.kron(I_N, d_gi) @ np.kron(b_g, I_N)
        right = np.kron(d_g, I_N) @ np.kron(I_N, b_gi)
        rows.rec("zigzag_left", norm(left - I_N), tol_strict)
        rows.rec("zigzag_right", norm(right - I_N), tol_strict)
    return list(rows.values())


# (row, left side, right side); a side is an ``op_word`` word or the name of
# a builder in :mod:`cyclic6j.operators`, looked up when the side is built
_RELATIONS = (
    ("A_involution", "A A", "identity_block"),
    ("B_involution", "B B", "identity_block"),
    ("A_vs_oracle", "op_A", "op_A_oracle"),
    ("B_vs_oracle", "op_B", "op_B_oracle"),
    ("L_from_AstarA", "A* A", "op_L"),
    ("R_from_BstarB", "B* B", "op_R"),
    ("C_identity", "op_C", "identity_block"),
    ("sqrtR_squared", "sqrtR sqrtR", "op_R"),
    ("sqrtL_squared", "sqrtL sqrtL", "op_L"),
    ("sqrtL_conjugation", "B A sqrtR^-1 A B", "op_sqrtL"),
    ("ALA_inverts_L", "A L A", "L^-1"),
    ("BRB_inverts_R", "B R B", "R^-1"),
    ("ARA_flips_R", "A R A", "L^-1 R"),
    ("BLB_flips_L", "B L B", "R^-1 L"),
)


def suite_operators(root: RootData, rng: np.random.Generator, trials: int,
                    tol: float, tol_strict: float) -> list:
    """Block-operator relations: involutions, closed forms, roots, scalars."""
    rows = _Rows()
    for _ in range(trials):
        g, h = random_admissible_pair(root, rng)

        def side(s):
            build = getattr(operators, s, None)
            return build(root, g, h) if build else op_word(root, g, h, s)
        for name, left, right in _RELATIONS:
            rows.rec(name, _block_diff(side(left), side(right)), tol)

        Q = assemble_q(root, g, h)
        c_chk, off_chk = _scalar_split(Q.check_mat)
        c_hat, off_hat = _scalar_split(Q.hat_mat)
        rows.rec("q_block_scalar", max(off_chk, off_hat), tol_strict)
        rows.rec("q_check_value", abs(c_chk - q_scalar(root, "check")),
                 tol_strict)
        rows.rec("q_hat_value", abs(c_hat - q_scalar(root, "hat")), tol_strict)
    return list(rows.values())


# The ranges of |x| and y of a sampled generator, and the smallest |x| of
# every label a sampled six-tuple or pentagon carries.
_LABEL_DRAW = (0.1, 2.0, (0.5, 2.0))
_LABEL_MARGIN = 0.05


def _random_label_six(rng: np.random.Generator) -> LabelSix:
    for _ in range(5000):
        i, j, l = (_random_element(rng, *_LABEL_DRAW) for _ in range(3))
        k = group_mul(i, j)
        elems = [i, j, l, k, group_mul(j, l), group_mul(k, l)]
        if min(abs(e.x) for e in elems) >= _LABEL_MARGIN:
            return LabelSix.from_generators(i, j, l)
    raise RuntimeError("no admissible six-tuple of labels found")


def _random_pentagon(rng: np.random.Generator) -> dict[str, GroupElement]:
    for _ in range(5000):
        jd = pentagon_labels(*(_random_element(rng, *_LABEL_DRAW)
                               for _ in range(4)))
        if min(abs(e.x) for e in jd.values()) >= _LABEL_MARGIN:
            return jd
    raise RuntimeError("no admissible pentagon labels found")


def suite_sixj(root: RootData, rng: np.random.Generator, trials: int,
               tol: float, tol_strict: float) -> list:
    """Charged pentagon, inversions, symmetry relations, negative controls."""
    rows = _Rows()
    control_floor = 1e-3
    for trial in range(trials):
        jd = _random_pentagon(rng)
        a0, a2, a4, c0, c4 = (int(v) for v in rng.integers(-2, 3, size=5))
        a = (a0, a0 + a2, a2, a2 + a4, a4)
        c = (c0, c0 + a4, c0 + a4 + a0 + c4, a0 + c4, c4)
        rows.rec("pentagon_charged",
                 check_charged_pentagon(root, jd, a, c), tol)
        if trial == 0:
            zero = (0,) * 5
            rows.rec("pentagon_zero_charge",
                     check_charged_pentagon(root, jd, zero, zero), tol)
            bad_c = c[:2] + (c[2] + 1,) + c[3:]
            rows.rec("control_pentagon_bad_charge",
                     check_charged_pentagon(root, jd, a, bad_c,
                                            skip_constraint_check=True),
                     control_floor, kind="min")

        lab = _random_label_six(rng)
        da, dc = (int(v) for v in rng.integers(-3, 4, size=2))
        r1, r2 = check_charged_inversion(root, lab, da, dc)
        rows.rec("inversion_first", r1, tol)
        rows.rec("inversion_second", r2, tol)

        db = int(rng.integers(-3, 4))
        charged = check_symmetry_relations(root, lab, da, db, 1 - da - db)
        uncharged = check_uncharged_symmetries(root, lab)
        for which, residuals in (("charged", charged), ("uncharged", uncharged)):
            for pair, r in zip(("01", "12", "23"), residuals):
                rows.rec(f"symmetry_{which}_{pair}", r, tol)

        if trial == 0:
            # contraction at non-opposite charges must miss the identity
            pos = sixj_pos(root, lab, 1, 0)
            neg = sixj_neg(root, lab, -1, 1)
            rows.rec("control_inversion_mismatch",
                     _inversion_defect(pos, neg), control_floor, kind="min")
    return list(rows.values())


def suite_moves(root: RootData, rng: np.random.Generator, trials: int,
                tol: float, tol_strict: float) -> list:
    """Move and symmetry invariance of the state sum on the shipped fixture."""
    rows = _Rows()
    scene = boundary4simplex_scene()
    T = scene.complex
    K0 = state_sum(root, scene)
    rows.rec("fixture_value_nonzero", abs(K0), 1e-12, kind="min")

    def drift(sc: Scene) -> float:
        return mod_qtilde_residual(state_sum(root, sc), K0, root)[0]

    sc = pachner_plus(scene, 0, 0)
    rows.rec("pachner_plus_mod_qtilde", drift(sc), tol)

    # collapse the central edge of the freshly added triple
    T2 = sc.complex
    new_tets = {T2.n_tets - 3, T2.n_tets - 2, T2.n_tets - 1}
    central = next(cls for cls in range(T2.n_edges)
                   if {t for t, _ in T2.edge_incidences(cls)} == new_tets)
    t_at, e_at = T2.edge_incidences(central)[0]
    back = pachner_minus(sc, t_at, e_at)
    rows.rec("pachner_roundtrip_mod_qtilde", drift(back), tol)

    non_link = next(cls for cls in range(T.n_edges) if cls not in scene.link)
    t_at, e_at = T.edge_incidences(non_link)[0]
    rows.rec("pachner_minus_mod_qtilde",
             drift(pachner_minus(scene, t_at, e_at)), tol)

    tf = next((t, f) for t in range(T.n_tets) for f in range(4)
              if any(T.edge_class(t, _EDGE_INDEX[(a, b)]) in scene.link
                     for a, b in itertools.combinations(FACE_CORNERS[f], 2)))
    blown = bubble_plus(scene, *tf)
    rows.rec("bubble_plus_mod_qtilde", drift(blown), tol)
    new_v = max(range(blown.complex.n_vertices),
                key=lambda v: blown.complex.vertex_rank[v])
    rows.rec("bubble_roundtrip_exact",
             abs(state_sum(root, bubble_minus(blown, new_v)) - K0), tol_strict)

    for cls in range(T.n_edges):
        c2 = deform_charge(T, scene.link, scene.charge, cls)
        rows.rec("charge_deform_mod_qtilde",
                 drift(Scene(T, scene.link, scene.coloring, c2)), tol)

    for _ in range(min(trials, 5)):
        perm = [int(v) for v in rng.permutation(T.n_vertices)]
        sc = Scene(T.with_vertex_ranks(perm), scene.link,
                   scene.coloring, scene.charge)
        rows.rec("vertex_reorder_mod_qtilde", drift(sc), tol)

    for _ in range(2):
        gauged = gauge_transform(T, scene.coloring, random_gauge(T, rng))
        K = state_sum(root, Scene(T, scene.link, gauged, scene.charge))
        rows.rec("gauge_exact", abs(K - K0), tol)
    return list(rows.values())


# level -> (suite, default trial count, e: its largest array has N**e
# entries); acceptance runs raise the trial counts explicitly.  Those
# arrays are the N powers of the N^2 x N^2 matrix E (algebra), the dense
# intertwiner and the oracle's composite stack (operators) and the two
# sides of the pentagon (sixj); the state-sum plan bounds moves.
_SUITES = {"algebra": (suite_algebra, 50, 5),
           "operators": (suite_operators, 25, 4),
           "sixj": (suite_sixj, 4, 6), "moves": (suite_moves, 5, 0)}
SUITE_LEVELS = tuple(_SUITES)


def run_suite(level: str, N: int, seed: int, trials: int | None,
              tol: float, tol_strict: float) -> tuple[list, bool]:
    """Runs one verification suite; returns (rows, all_ok).

    Raises :class:`AlgebraError` before building any array when the
    suite's largest array would hold more than ``MAX_ENTRIES`` entries.
    """
    suite, default_trials, exponent = _SUITES[level]
    if N ** exponent > MAX_ENTRIES:
        raise AlgebraError(
            f"verify --level {level} at N = {N} needs an array of "
            f"N^{exponent} entries, over the budget of {MAX_ENTRIES}")
    rows = suite(RootData(N), np.random.default_rng(seed),
                 default_trials if trials is None else trials, tol, tol_strict)
    return rows, all(_row_ok(r) for r in rows)


def cmd_verify(args: argparse.Namespace) -> int:
    trials = args.trials or _SUITES[args.level][1]
    rows, ok = run_suite(args.level, args.N, args.seed, trials,
                         args.tol, args.tol_strict)
    print(f"verify level={args.level} N={args.N} seed={args.seed} "
          f"trials={trials} tol={args.tol:.1e} tol_strict={args.tol_strict:.1e}")
    for row in rows:
        name, value, bound, kind = row
        flag = "ok  " if _row_ok(row) else "FAIL"
        rel = "<=" if kind == "max" else "> "
        print(f"{flag} {name:32s} {value:11.3e}  {rel} {bound:.1e}")
    if ok:
        print(f"PASS {len(rows)} identities")
        return 0
    bad = [r[0] for r in rows if not _row_ok(r)]
    print(f"FAIL {len(bad)}/{len(rows)}: " + ", ".join(bad))
    return 1


def _read_json(path: str) -> dict:
    """The JSON value in ``path``, or on stdin for '-'."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:
        # bytes that are not text, or arrays nested past the parser's depth
        raise TopologyError(f"bad JSON input ({exc})") from None


def _emit_document(scene: Scene, out: str | None) -> None:
    text = json.dumps(scene_document(scene), sort_keys=True, indent=1)
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _prepare_scene(doc: dict, hint: str, fix_coloring: bool = False,
                   solve_charge: bool = False, seed: int = 0) -> Scene:
    """A triangulation document as a scene with an admissible coloring and
    a charge; a refusal names the option that would fix it after ``hint``."""
    scene = load_document(doc)
    if scene.coloring is None:
        raise TopologyError("document has no coloring")
    if not is_admissible(scene.coloring):
        if not fix_coloring:
            raise TopologyError(
                f"coloring is not admissible ({hint} --make-admissible)")
        rng = np.random.default_rng(seed)
        fixed = make_admissible(scene.complex, scene.coloring, rng)
        scene = dataclasses.replace(scene, coloring=fixed)
    if scene.charge is None:
        if not solve_charge:
            raise TopologyError(f"document has no charge ({hint} --find-charge)")
        scene = dataclasses.replace(
            scene, charge=find_charge(scene.complex, scene.link))
    return scene


def _read_record(doc, N: int) -> tuple[int, complex]:
    """The root order (default ``N``) and the ``[re, im]`` value of a result record."""
    try:
        re, im = doc["value"]
        value, N = complex(_real(re), _real(im)), doc.get("N", N)
        if type(N) is not int:  # 3.7, 3.0, "3" and true alike
            raise TypeError(f"N = {N!r} is not an integer")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantError(f"malformed result record: {exc!r}") from exc
    return N, value


def cmd_invariant(args: argparse.Namespace) -> int:
    root = RootData(args.N, args.k_root)
    if args.baseline is not None:  # refused before any output
        N_base, z_base = _read_record(_read_json(args.baseline), args.N)
        if N_base != args.N:
            raise InvariantError(f"baseline record is at N = {N_base}, "
                                 f"not N = {args.N}")
    scene = _prepare_scene(_read_json(args.file), "rerun with",
                           args.make_admissible, args.find_charge, args.seed)
    value = state_sum(root, scene)
    print(json.dumps(invariant_record(value, root), sort_keys=True))
    if args.baseline is None:
        return 0
    if equal_mod_qtilde(value, z_base, root, tol=args.tol):
        _, k = mod_qtilde_residual(value, z_base, root)
        print(f"baseline: equal mod qtilde, k={k}")
        return 0
    print("baseline: NOT equal mod qtilde")
    return 1


# kind -> (move, the cells its --target may name; the last form is the default)
_MOVES = {
    "pachner+": (pachner_plus, "tet,face"),
    "pachner-": (pachner_minus, "tet,edge"),
    "bubble+": (bubble_plus, "tet,face,slot", "tet,face"),
    "bubble-": (bubble_minus, "vertex"),
}


def cmd_move(args: argparse.Namespace) -> int:
    scene = load_document(_read_json(args.file))
    move, *forms = _MOVES[args.kind]
    parts = args.target.split(",")
    cells = next((c for c in forms if c.count(",") == len(parts) - 1),
                 forms[-1])
    if cells.count(",") != len(parts) - 1:
        raise TopologyError(f"--target for {args.kind} ({cells}) needs "
                            f"{cells.count(',') + 1} comma-separated integers")
    try:
        target = [int(p) for p in parts]
    except ValueError as exc:
        raise TopologyError(f"bad --target {args.target!r}") from exc
    moved = move(scene, *target)
    load_document(scene_document(moved))  # output must revalidate
    _emit_document(moved, args.out)
    return 0


def cmd_find_charge(args: argparse.Namespace) -> int:
    scene = load_document(_read_json(args.file))
    charge = find_charge(scene.complex, scene.link)
    _emit_document(dataclasses.replace(scene, charge=charge), args.out)
    return 0


def cmd_gauge(args: argparse.Namespace) -> int:
    scene = load_document(_read_json(args.file))
    if scene.coloring is None:
        raise TopologyError("document has no coloring to gauge")
    T = scene.complex
    if args.vertex is None:
        if (args.x, args.y) != (None, None):
            raise TopologyError("--x and --y need --vertex")
        gauge = random_gauge(T, np.random.default_rng(args.seed))
    elif args.x is None or args.y is None:
        raise TopologyError("point gauge needs --x and --y")
    else:
        gauge = point_gauge(T, args.vertex, GroupElement(args.x, args.y))
    coloring = gauge_transform(T, scene.coloring, gauge)
    for cls, g in sorted(coloring.items()):
        # the read-back reads each color in both orientations
        if not all(map(math.isfinite, (g.x, g.y, g.x / g.y, 1.0 / g.y))):
            raise TopologyError(f"--x/--y send edge class {cls} out of range: "
                                "x, y, -x/y or 1/y is not a finite real number")
    gauged = dataclasses.replace(scene, coloring=coloring)
    try:
        load_document(scene_document(gauged))  # output must revalidate
    except BadColoring as exc:
        # a gauge of a cocycle is a cocycle: terms near the float range
        # cancelled in the check
        raise TopologyError(
            f"--x/--y leave gauged colors that no longer pass the cocycle "
            f"check to rounding ({exc})") from exc
    _emit_document(gauged, args.out)
    return 0


def cmd_canonical(args: argparse.Namespace) -> int:
    doc = _read_json(args.file)
    if isinstance(doc, dict) and "value" in doc:
        N, value = _read_record(doc, args.N)
        root = RootData(N, args.k_root)
    else:
        root = RootData(args.N, args.k_root)
        value = state_sum(root, _prepare_scene(doc, "use cyclic6j invariant"))
    print(json.dumps(invariant_record(value, root), sort_keys=True))
    return 0


def _checked(ok, need: str, kind=int):
    """An argparse type: a ``kind`` for which ``ok`` holds, else "must be ``need``"."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value
    parse.__name__ = kind.__name__  # "abc" reads "invalid int value: 'abc'"
    return parse


# a tolerance: nan, inf and values <= 0 would fail or pass every check
_TOL = _checked(lambda x: 0 < x < float("inf"), "finite and > 0", float)
_FINITE = _checked(math.isfinite, "finite", float)

# the root order, seed and tolerances; each subcommand adds the ones it reads
_SHARED = {
    "--N": dict(type=_checked(lambda n: n >= 3 and n % 2, "odd and >= 3"),
                default=3, help="root order, odd and >= 3 (default 3)"),
    "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "--tol": dict(type=_TOL, default=1e-8,
                  help="residual tolerance, finite and > 0 (default 1e-8)"),
    "--tol-strict": dict(type=_TOL, default=1e-10,
                         help="strict residual tolerance, finite and > 0 "
                              "(default 1e-10)"),
}


def _add_shared(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_SHARED[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclic6j",
        description="Charged 6j-symbol verification suites and the "
                    "state-sum invariant of triangulated 3-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a residual verification suite")
    p.add_argument("--level", required=True, choices=SUITE_LEVELS)
    p.add_argument("--trials", type=_checked(lambda n: n >= 1, "at least 1"),
                   help="random draws per identity, at least 1 "
                        "(level-dependent default)")
    _add_shared(p, "--N", "--seed", "--tol", "--tol-strict")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariant",
                       help="compute the invariant of a triangulation document")
    p.add_argument("file", help="triangulation JSON ('-' for stdin)")
    p.add_argument("--k-root", type=int, default=1,
                   help="primitive-root exponent k (default 1)")
    p.add_argument("--baseline",
                   help="result JSON to compare against, mod qtilde powers")
    p.add_argument("--make-admissible", action="store_true",
                   help="gauge away inadmissible edge colors first")
    p.add_argument("--find-charge", action="store_true",
                   help="solve for a charge if the document has none")
    _add_shared(p, "--N", "--seed", "--tol")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("move", help="apply a move to a triangulation document")
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=tuple(_MOVES))
    p.add_argument("--target", required=True,
                   help="cells: 'tet,face' / 'tet,edge' / 'vertex'")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_move)

    p = sub.add_parser("find-charge",
                       help="solve the charge system and emit the document")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_find_charge)

    p = sub.add_parser("gauge", help="apply a gauge transform to the coloring")
    p.add_argument("file")
    p.add_argument("--vertex", type=int,
                   help="vertex class for a point gauge (else a random gauge)")
    p.add_argument("--x", type=_FINITE, help="point gauge element, x part")
    p.add_argument("--y", type=_FINITE, help="point gauge element, y part")
    p.add_argument("--out")
    _add_shared(p, "--seed")
    p.set_defaults(func=cmd_gauge)

    p = sub.add_parser("canonical",
                       help="canonical representative of an invariant value")
    p.add_argument("file", help="result JSON or triangulation JSON")
    p.add_argument("--k-root", type=int, default=1)
    _add_shared(p, "--N")
    p.set_defaults(func=cmd_canonical)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than
    parsing, and ``main`` may run many times in one process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TopologyError, AlgebraError, InvariantError, OSError) as exc:
        why = str(exc)
    except json.JSONDecodeError as exc:
        why = f"bad JSON input ({exc})"
    except MemoryError as exc:
        why = f"out of memory ({exc})"
    print(f"error: {why}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
