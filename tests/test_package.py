"""The package's public names: the same names as ever, each the object its
defining module holds, loaded from that module on first access."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import longedge

# Every name the package exports, by defining module.
EXPORTS = {
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
ALL_NAMES = {name for names in EXPORTS.values() for name in names}


def test_all_lists_every_export_once():
    assert len(longedge.__all__) == len(ALL_NAMES)
    assert set(longedge.__all__) == ALL_NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_module_attribute(module):
    defining = importlib.import_module(f"longedge.{module}")
    for name in EXPORTS[module]:
        assert getattr(longedge, name) is getattr(defining, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from longedge import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == ALL_NAMES
    assert namespace["severi_series"](4, 3) == [1, 27, 225, 675]


def test_dir_lists_every_name():
    assert ALL_NAMES <= set(dir(longedge))
    assert "__version__" in dir(longedge)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        longedge.no_such_name
    with pytest.raises(ImportError):
        from longedge import no_such_name  # noqa: F401


def test_import_loads_no_submodule():
    script = (
        "import sys\n"
        "import longedge\n"
        "print(sorted(m for m in sys.modules if m.startswith('longedge.')))\n"
        "longedge.make_graph\n"
        "print(sorted(m for m in sys.modules if m.startswith('longedge.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['longedge.graphs']"]
