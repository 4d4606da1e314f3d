"""Wiring diagrams: construction, sweeps, faces, local moves, straightening."""

from .diagram import (
    GeneralizedWiringDiagram,
    diagram_from_json_dict,
    diagram_from_realization,
    diagram_to_json_dict,
    sweep_digraph,
    topological_sweep,
)
from .euclid import diagram_from_lines
from .faces import trace_faces_disk
from .mutations import (
    apply_triangle_move,
    insert_digon,
    remove_digon,
    removable_digons,
    triangle_moves,
)
from .straighten import (
    StraightDrawing,
    drawing_from_json_dict,
    drawing_to_json_dict,
    straighten,
)

__all__ = [
    "GeneralizedWiringDiagram",
    "StraightDrawing",
    "apply_triangle_move",
    "diagram_from_json_dict",
    "diagram_from_lines",
    "diagram_from_realization",
    "diagram_to_json_dict",
    "drawing_from_json_dict",
    "drawing_to_json_dict",
    "insert_digon",
    "removable_digons",
    "remove_digon",
    "straighten",
    "sweep_digraph",
    "topological_sweep",
    "trace_faces_disk",
    "triangle_moves",
]
