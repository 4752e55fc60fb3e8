"""Command-line surface: exact values on stdout, machine records via --json.

Every numeric value is printed exactly, as a decimal or "p/q" string;
nothing here ever goes through floating point.  Exit codes: 0 success,
1 verification failure, 2 usage or guard error, 3 internal error (an
invariant violation, reported as "internal error: ..." on stderr).

A graph file's work, the product of (length + 1) over its edges, bounds
the gaps the allowability check walks, n-graph's distributions and
q-graph's (block, distribution) pairs; above GRAPH_MAX_WORK = 10^7 (~26 s
at ~2.6 us per unit on a 2-vCPU box, ~1.2 GiB for one edge) it exits 2.
q-graph's pairs cost up to ~5.3 us each, so q-graph exits 2 above
QGRAPH_MAX_WORK = 5 * 10^6 (~26 s).

severi and q walk the vertices once, so their cost is linear in d: on the
same box, severi --d 2000 --delta 2 takes ~0.5 s and --d 20000 --delta 1
~1 s.  Past the d where the walk at that delta takes ~26 s (SEVERI_MAX_D,
and Q_TEMPLATES_MAX_D for q --route templates) they exit 2.

Each command imports only the modules it runs: graphs, templates and
counting at start-up; qcalc, polynomials, floor_diagrams and acceptance
inside the handlers that use them (and `import longedge` itself loads
each submodule on first use).  Of the standard library, start-up needs
only what those modules import, sys, time and types: options are read by
one table, COMMANDS, not argparse, json is imported only under --json,
and graph files are opened without pathlib.  Options are given whole
(--name value or --name=value); prefixes such as --del are not accepted.
On a 2-vCPU box, without bytecode caches, a fresh severi --d 1 --delta 0
took a median 79.7 ms with argparse and 71.4 ms with the table (60
interleaved spawns; `python -c pass` 56.5 ms), and 43.4 and 31.5 ms under
`python -S` (30 spawns; 8.2 ms).
"""

from __future__ import annotations

import sys
import time
from types import SimpleNamespace

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
# q-graph counts every block of edges: sum over blocks of the product of
# their lengths, which is work - 1 distributions, each dearer than
# n-graph's (fresh process, 2-vCPU box: 1.7-5.3 us per unit over eleven
# 8- to 12-edge files; the 12-edge chain of four (k, k+3, 1) per
# (k, k+2, 1), work 5,308,416, took 28.1 s).  ~26 s at the dearest.
QGRAPH_MAX_WORK = 5 * 10**6

# Largest --d per --delta for one walk over d: past it the walk takes more
# than ~26 s.  Fresh process, 2-vCPU box, linear in d past small d; the
# seconds measured at the largest d tried, (d, seconds) by delta:
# severi_series (severi, q --route log): 0: (10^6, 0.67), 1: (740000, 19.2),
# 2: (20000, 3.67), 3: (40000, 27.9), 4: (1000, 3.27), 5: (1500, 27.6),
# 6: (40, 3.89), 7: (48, 26.8), 8: (12, 25.1).
SEVERI_MAX_D = {
    0: 38_000_000, 1: 740_000, 2: 140_000, 3: 37_000, 4: 7_700,
    5: 1_400, 6: 230, 7: 46, 8: 12,
}
# q_delta_templates (q --route templates): 1: (800000, 27.8),
# 2: (10000, 1.79), 3: (1000, 2.36), 4: (300, 3.88), 5: (330, 27.6),
# 6: (45, 26.3), 7: (10, 27.6), 8: (6, 37.3).
Q_TEMPLATES_MAX_D = {
    1: 750_000, 2: 140_000, 3: 10_000, 4: 2_000, 5: 310, 6: 44, 7: 9, 8: 5,
}


def _emit_value(args, params: dict, value: str, method: str, started: float) -> int:
    """Print the value, or with --json its record; exit code 0."""
    if args.json:
        import json

        print(json.dumps({
            "command": args.command,
            "params": params,
            "value": value,
            "method": method,
            "ms": int((time.perf_counter() - started) * 1000),
        }, sort_keys=True))
    else:
        print(value)
    return 0


def _guard_d(args, max_d: dict[int, int]) -> None:
    """Exit 2 before any counting when --d is past the walk's bound."""
    if args.d > max_d[args.delta]:
        raise ValueError(
            f"--d guarded at <= {max_d[args.delta]} for --delta {args.delta}: "
            f"the walk over d would take more than ~26 s"
        )


def _cmd_templates(args) -> int:
    if not (0 <= args.delta <= TEMPLATES_MAX_DELTA):
        raise ValueError(f"--delta must be in 0..{TEMPLATES_MAX_DELTA}")
    catalog = enumerate_templates(args.delta)
    if args.json:
        import json

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
    _guard_d(args, SEVERI_MAX_D)
    if args.method == "floor":
        from .floor_diagrams import fmcount

        value = fmcount(args.d, args.delta)
    else:
        value = severi_degree(args.d, args.delta)
    return _emit_value(
        args, {"d": args.d, "delta": args.delta}, str(value), args.method, started
    )


def _cmd_node_poly(args) -> int:
    from .polynomials import FACTORED_NODE_POLYNOMIALS, node_polynomial

    started = time.perf_counter()
    poly = node_polynomial(args.delta)
    if args.json:
        import json

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
        _guard_d(args, SEVERI_MAX_D)
        value = q_delta_log(args.d, args.delta)
    else:
        _guard_d(args, Q_TEMPLATES_MAX_D)
        value = q_delta_templates(args.d, args.delta)
    return _emit_value(
        args, {"d": args.d, "delta": args.delta}, str(value), args.route, started
    )


def _load_graph(args):
    with open(args.graph, encoding="utf-8") as f:
        g = parse_graph_text(f.read())
    work = 1
    for e in g.edges:
        work *= e.length + 1
        if work > GRAPH_MAX_WORK:
            raise ValueError(
                f"graph guarded at work <= {GRAPH_MAX_WORK}: the product of "
                f"(length + 1) over its edges is larger"
            )
    if args.command == "q-graph" and work > QGRAPH_MAX_WORK:
        raise ValueError(
            f"q-graph guarded at work <= {QGRAPH_MAX_WORK}: the product of "
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
    return _emit_value(
        args,
        {"d": args.d, "file": args.graph, "k": args.k},
        str(count(g, args.d)),
        "templates",
        started,
    )


def _cmd_verify(args) -> int:
    from .acceptance import run_criteria

    outcomes = run_criteria(args.level)
    if args.json:
        import json

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


def _integer(text: str) -> int:
    """Option type of --delta and --k: any integer, else exit 2."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    """Option type of --d and --jobs: an integer >= 1, else exit 2."""
    value = _integer(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


_REQUIRED = None
_D = {"--d": (_positive_int, _REQUIRED)}
_DELTA = {"--delta": (_integer, _REQUIRED)}
# --k: an extra rightward offset of the graph
_GRAPH = {"--graph": (str, _REQUIRED), **_D, "--k": (_integer, 0)}

# command: (handler, help, options).  An option maps to (type, default): a
# callable converts the value and raises ValueError on a bad one, a tuple
# lists the choices, bool marks a flag, and a default of _REQUIRED makes
# the option required.  Every command also takes the flag --json.
COMMANDS = {
    "templates": (_cmd_templates, "list all templates of one cogenus", _DELTA),
    "severi": (_cmd_severi, "Severi degree N^{d,delta}", {
        **_D, **_DELTA,
        "--method": (("templates", "floor"), "templates"),
        "--jobs": (_positive_int, 1),  # ignored
    }),
    "node-poly": (_cmd_node_poly, "node polynomial for a node count", _DELTA),
    "q": (_cmd_q, "log-series coefficient Q^{d,delta}", {
        **_D, **_DELTA, "--route": (("templates", "log"), "templates"),
    }),
    "n-graph": (_cmd_graph, "weighted ordering count of a graph file", _GRAPH),
    "q-graph": (_cmd_graph, "log quantity of a graph file", _GRAPH),
    "verify": (_cmd_verify, "run the acceptance criteria", {
        "--level": (("quick", "full"), "quick"),
    }),
}
_TOP_USAGE = "usage: longedge [-h] {" + ",".join(COMMANDS) + "} ..."


def _usage(command: str, options: dict) -> str:
    words = ["usage: longedge", command, "[-h]"]
    for name, (kind, default) in options.items():
        shown = name if kind is bool else f"{name} " + (
            "{" + ",".join(kind) + "}" if type(kind) is tuple else name[2:].upper())
        words.append(shown if default is _REQUIRED else f"[{shown}]")
    return " ".join(words)


def _exit_usage(prog: str, usage: str, message: str):
    """Print the usage and the error on stderr and exit 2, as argparse does."""
    print(f"{usage}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command's handler and option values, read by the COMMANDS table.

    --help prints the usage and exits 0; a usage error exits 2 naming the
    option, or the command.  Options are given whole, as --name value or
    --name=value; a repeated option keeps its last value.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(f"{_TOP_USAGE}\n\nExact Severi degrees and log-series quantities "
              "from long-edge graphs\n\ncommands:")
        for name, (_, text, _) in COMMANDS.items():
            print(f"  {name:11s} {text}")
        raise SystemExit(0)
    if command not in COMMANDS:
        _exit_usage("longedge", _TOP_USAGE, "the following arguments are required: command"
                    if command is None else f"argument command: invalid choice: {command!r}"
                    f" (choose from {', '.join(map(repr, COMMANDS))})")
    handler, text, options = COMMANDS[command]
    options = {**options, "--json": (bool, False)}
    usage = _usage(command, options)

    def fail(message: str):
        _exit_usage(f"longedge {command}", usage, message)

    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(f"{usage}\n\n{text}")
            raise SystemExit(0)
        name, explicit, value = token.partition("=")
        if name not in options:
            fail(f"unrecognized arguments: {token}")
        kind = options[name][0]
        if kind is bool:
            if explicit:
                fail(f"argument {name}: ignored explicit argument {value!r}")
            values[name] = True
            continue
        if not explicit:
            value = next(tokens, None)
            if value is None or (value.startswith("-") and not value[1:2].isdecimal()):
                fail(f"argument {name}: expected one argument")
        try:
            if type(kind) is tuple and value not in kind:
                raise ValueError(f"invalid choice: {value!r} "
                                 f"(choose from {', '.join(map(repr, kind))})")
            values[name] = value if type(kind) is tuple else kind(value)
        except ValueError as exc:
            fail(f"argument {name}: {exc}")
    missing = [n for n, (_, d) in options.items() if d is _REQUIRED and n not in values]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, handler=handler, **{
        name[2:]: values.get(name, default) for name, (_, default) in options.items()
    })


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
