"""Exact combinatorics of Severi degrees on long-edge graphs.

Counts nodal plane curves through general points with arbitrary-precision
integer arithmetic, recovers node polynomials by exact interpolation, and
computes the coefficients of the formal log of the counting series two
independent ways.  Floor diagrams provide a third, independent route to
the same numbers.

Importing the package loads no submodule: each public name is imported
from its defining module on first access (PEP 562), so a process loads
only the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "graphs": (
        "EMPTY_GRAPH", "Edge", "LongEdgeGraph", "allowable_profile",
        "automorphism_count", "automorphism_count_with", "cogenus", "decompose",
        "disjoint_union", "is_allowable", "is_offset_template", "is_template",
        "make_edge", "make_graph", "multiplicity", "offset", "parse_graph_text",
        "format_graph_text", "weight_profile",
    ),
    "templates": (
        "allowable_offsets", "enumerate_graphs", "enumerate_templates",
        "min_allowable_offset", "placements",
    ),
    "counting": (
        "enumerate_distributions", "falling_factorial", "labeled_count", "n_graph",
        "n_star", "orderings_oracle", "severi_degree", "severi_series",
    ),
    "qcalc": (
        "SimpleGraphH", "chromatic_derivative_at_zero", "chromatic_polynomial",
        "exp_recover_n", "make_simple_graph", "pair_identity", "q_delta_log",
        "q_delta_templates", "q_graph", "q_star", "sigma",
    ),
    "polynomials": (
        "RationalPolynomial", "finite_difference_degree", "interpolate",
        "node_polynomial", "q_polynomial",
    ),
    "floor_diagrams": (
        "FloorDiagram", "enumerate_floor_diagrams", "fd_cogenus", "fd_multiplicity",
        "fmcount", "from_long_edge", "make_diagram", "marking_count",
        "parse_diagram_text", "format_diagram_text", "restored_long_edge",
        "to_long_edge",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
