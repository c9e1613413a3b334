"""
Triangulations with a Hamiltonian link, charges, and moves
==========================================================

Loads the boundary-of-the-4-simplex fixture (five tetrahedra, a 5-cycle
link through every vertex), validates it, solves the charge system, and
applies the local moves that the state-sum invariant must survive.
"""
import itertools

from cyclic6j.fixtures import boundary4simplex_scene
from cyclic6j.triangulation import (
    FACE_CORNERS, _EDGE_INDEX, bubble_minus, bubble_plus, deform_charge,
    find_charge, pachner_minus, pachner_plus, scene_document,
    validate_charge, validate_link,
)

scene = boundary4simplex_scene()
T = scene.complex
print(f"fixture: {T.n_tets} tetrahedra, {T.n_edges} edge classes, "
      f"{T.n_vertices} vertices")
print(f"link edge classes: {sorted(scene.link)}")
validate_link(T, scene.link)

# the charge system: half-integers (stored doubled) summing to 1/2 around
# each tetrahedron pair, to 1 around regular edges, to 0 around link edges
charge = find_charge(T, scene.link)
validate_charge(T, scene.link, charge)
print("charge per tetrahedron (doubled):")
for t, row in enumerate(charge):
    print(f"  tet {t}: {row}")

# a charge deformation along an edge preserves validity
deformed = deform_charge(T, scene.link, charge, edge_cls=0)
validate_charge(T, scene.link, deformed)
print("deformation along edge 0 keeps the charge valid")

# positive Pachner move: two tetrahedra sharing a face become three
bigger = pachner_plus(scene, tet=0, face=0)
print(f"pachner+: now {bigger.complex.n_tets} tetrahedra, "
      f"coloring and charge transported")

# the new central edge has degree three; collapsing it undoes the move
T2 = bigger.complex
new_tets = {T2.n_tets - 3, T2.n_tets - 2, T2.n_tets - 1}
central = next(cls for cls in range(T2.n_edges)
               if {t for t, _ in T2.edge_incidences(cls)} == new_tets)
t_at, e_at = T2.edge_incidences(central)[0]
back = pachner_minus(bigger, t_at, e_at)
print(f"pachner-: back to {back.complex.n_tets} tetrahedra")

# positive bubble: a two-tetrahedron ball over a face met by the link
t_b, f_b = next(
    (t, f) for t in range(T.n_tets) for f in range(4)
    if any(T.edge_class(t, _EDGE_INDEX[(a, b)]) in scene.link
           for a, b in itertools.combinations(FACE_CORNERS[f], 2)))
blown = bubble_plus(scene, t_b, f_b)
print(f"bubble+: {blown.complex.n_tets} tetrahedra, "
      f"{blown.complex.n_vertices} vertices, link now "
      f"{len(blown.link)} edges")
new_v = max(range(blown.complex.n_vertices),
            key=lambda v: blown.complex.vertex_rank[v])
undone = bubble_minus(blown, new_v)
print(f"bubble-: back to {undone.complex.n_tets} tetrahedra")

# documents serialize canonically; a reload reproduces the bytes
doc = scene_document(scene)
print(f"document keys: {sorted(doc)}")
