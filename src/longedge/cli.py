"""Command-line surface: exact values on stdout, machine records via --json.

Every numeric value is printed exactly, as a decimal or "p/q" string;
nothing here ever goes through floating point.  Exit codes: 0 success,
1 verification failure, 2 usage or guard error, 3 internal error (an
invariant violation, reported as "internal error: ..." on stderr).

A graph file's work, the product of (length + 1) over its edges, bounds
the gaps the allowability check walks, n-graph's distributions and
q-graph's (block, distribution) pairs; above GRAPH_MAX_WORK = 10^7 (~26 s
at ~2.6 us per unit on a 2-vCPU box, ~1.2 GiB for one edge) it exits 2.

severi walks the vertices once, so its cost is linear in d: on the same
box, severi --d 2000 --delta 2 takes ~0.5 s and --d 20000 --delta 1 ~1 s.

Each command imports only the modules it runs: graphs, templates and
counting at start-up; qcalc, polynomials, floor_diagrams and acceptance
inside the handlers that use them (and `import longedge` itself loads
each submodule on first use).  On the same box, importing this module
went from ~69 to ~22 ms, and a fresh severi --d 1 --delta 0 from a median
153 to 107 ms (30 alternating spawns each).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .counting import severi_degree, n_graph
from .graphs import (
    automorphism_count,
    cogenus,
    format_graph_text,
    multiplicity,
    offset,
    parse_graph_text,
)
from .templates import enumerate_templates, min_allowable_offset

# templates --delta 10 --json: 529,755 templates, 75.8 MB of output in
# ~20 s at 97 MiB peak RSS, most of it the catalog; records are streamed.
TEMPLATES_MAX_DELTA = 10
SEVERI_MAX_DELTA = 8
GRAPH_MAX_WORK = 10**7


def _record(command: str, params: dict, value: str, method: str, started: float) -> dict:
    return {
        "command": command,
        "params": params,
        "value": value,
        "method": method,
        "ms": int((time.perf_counter() - started) * 1000),
    }


def _emit_value(args, record: dict) -> int:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(record["value"])
    return 0


def _cmd_templates(args) -> int:
    if not (0 <= args.delta <= TEMPLATES_MAX_DELTA):
        raise ValueError(f"--delta must be in 0..{TEMPLATES_MAX_DELTA}")
    catalog = enumerate_templates(args.delta)
    if args.json:
        # one record at a time, the same bytes as json.dumps of the list
        encode = json.JSONEncoder(sort_keys=True).encode
        sys.stdout.write("[")
        for i, t in enumerate(catalog):
            sys.stdout.write((", " if i else "") + encode({
                "edges": [[e.start, e.end, e.weight] for e in t.edges],
                "delta": str(cogenus(t)),
                "mu": str(multiplicity(t)),
                "alpha": str(automorphism_count(t)),
                "k_min": str(min_allowable_offset(t)),
            }))
        sys.stdout.write("]\n")
        return 0
    for i, t in enumerate(catalog):
        print(f"# template {i + 1}: delta={cogenus(t)} mu={multiplicity(t)} "
              f"alpha={automorphism_count(t)} k_min={min_allowable_offset(t)}")
        print(format_graph_text(t))
    if not len(catalog):
        print("# no templates")
    return 0


def _cmd_severi(args) -> int:
    started = time.perf_counter()
    if not (0 <= args.delta <= SEVERI_MAX_DELTA):
        raise ValueError(f"--delta must be in 0..{SEVERI_MAX_DELTA}")
    if args.method == "floor":
        from .floor_diagrams import fmcount

        value = fmcount(args.d, args.delta)
    else:
        value = severi_degree(args.d, args.delta)
    record = _record(
        "severi",
        {"d": args.d, "delta": args.delta},
        str(value),
        args.method,
        started,
    )
    return _emit_value(args, record)


def _cmd_node_poly(args) -> int:
    from .polynomials import FACTORED_NODE_POLYNOMIALS, node_polynomial

    started = time.perf_counter()
    poly = node_polynomial(args.delta)
    if args.json:
        record = {
            "command": "node-poly",
            "params": {"delta": args.delta},
            "coefficients": poly.to_strings(),
            "method": "templates",
            "ms": int((time.perf_counter() - started) * 1000),
        }
        print(json.dumps(record, sort_keys=True))
        return 0
    print(poly.pretty("d"))
    print(f"coefficients (constant first): {poly.to_strings()}")
    known = FACTORED_NODE_POLYNOMIALS.get(args.delta)
    if known is not None and known[1] == poly:
        print(f"factored: {known[0]}")
    return 0


def _cmd_q(args) -> int:
    from .qcalc import q_delta_log, q_delta_templates

    started = time.perf_counter()
    if not (1 <= args.delta <= SEVERI_MAX_DELTA):
        raise ValueError(f"--delta must be in 1..{SEVERI_MAX_DELTA}")
    if args.route == "log":
        value = q_delta_log(args.d, args.delta)
    else:
        value = q_delta_templates(args.d, args.delta)
    record = _record(
        "q", {"d": args.d, "delta": args.delta}, str(value), args.route, started
    )
    return _emit_value(args, record)


def _load_graph(args):
    text = Path(args.graph).read_text(encoding="utf-8")
    g = parse_graph_text(text)
    work = 1
    for e in g.edges:
        work *= e.length + 1
        if work > GRAPH_MAX_WORK:
            raise ValueError(
                f"graph guarded at work <= {GRAPH_MAX_WORK}: the product of "
                f"(length + 1) over its edges is larger"
            )
    if args.k:
        g = offset(g, args.k)
    return g


def _cmd_graph(args) -> int:
    started = time.perf_counter()
    g = _load_graph(args)
    if args.command == "n-graph":
        count = n_graph
    else:
        from .qcalc import q_graph as count
    record = _record(
        args.command,
        {"d": args.d, "file": args.graph, "k": args.k},
        str(count(g, args.d)),
        "templates",
        started,
    )
    return _emit_value(args, record)


def _cmd_verify(args) -> int:
    from .acceptance import run_criteria

    outcomes = run_criteria(args.level)
    if args.json:
        payload = [
            {
                "name": o.name,
                "passed": o.passed,
                "detail": o.detail,
                "seconds": round(o.seconds, 3),
            }
            for o in outcomes
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        for o in outcomes:
            tag = "PASS" if o.passed else "FAIL"
            print(f"[{tag}] {o.name} ({o.seconds:.2f} s) {o.detail}")
    failures = [o for o in outcomes if not o.passed]
    if failures:
        print(f"FAILED: {failures[0].name}", file=sys.stderr)
        return 1
    return 0


def _positive_int(text: str) -> int:
    """Argument type of --d and --jobs: an integer >= 1, else exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longedge",
        description="Exact Severi degrees and log-series quantities from long-edge graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("templates", help="list all templates of one cogenus")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_templates)

    p = sub.add_parser("severi", help="Severi degree N^{d,delta}")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--method", choices=("templates", "floor"), default="templates")
    p.add_argument("--jobs", type=_positive_int, default=1, help="ignored")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_severi)

    p = sub.add_parser("node-poly", help="node polynomial for a node count")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_node_poly)

    p = sub.add_parser("q", help="log-series coefficient Q^{d,delta}")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--route", choices=("templates", "log"), default="templates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_q)

    for name, text in (
        ("n-graph", "weighted ordering count of a graph file"),
        ("q-graph", "log quantity of a graph file"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--graph", required=True)
        p.add_argument("--d", type=_positive_int, required=True)
        p.add_argument("--k", type=int, default=0, help="extra rightward offset")
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
