"""Workload menus and the seeded schedule of `longedge` CLI commands.

A workload is a list of slots; each slot is a menu of alternative
commands, and one pass runs one command from every slot.  Commands are
drawn in bags: a bag holds lcm(menu sizes) passes, and within a bag every
menu entry is drawn equally often, so each bag does the same work whatever
the seed.  The seed decides which entries share a pass and the order of
the passes and of the commands inside each pass.  This module starts no
process, so the tests can check the schedule directly.
"""

from __future__ import annotations

import math
import random

Command = tuple[str, ...]

# The trivial command whose wall time is `setup_s`: import plus start-up.
SETUP_COMMAND: Command = ("severi", "--d", "1", "--delta", "0")


def _cmd(text: str) -> Command:
    return tuple(text.split())


MENUS: dict[str, list[list[Command]]] = {
    # Headline use: each graph counted once; the second slot takes the
    # process-pool path.
    "severi": [
        [_cmd(f"severi --d {d} --delta 5") for d in (11, 12)],
        [_cmd(f"severi --d {d} --delta 6 --jobs 2") for d in (7, 8)],
    ],
    # The same severi_degree repeated over d and over cogenus: where work
    # shared across calls would show.
    "series": [
        [_cmd("node-poly --delta 4")],
        [_cmd(f"q --route log --d {d} --delta 5") for d in (9, 10, 11)],
    ],
    # Set-partition sums only; no graph assembly or n_graph.
    "qpart": [
        [_cmd(f"q --route templates --d {d} --delta 5") for d in (9, 10, 11)],
    ],
    # Cold template catalog, the acceptance registry and the floor route.
    "catalog": [
        [_cmd("templates --delta 7 --json")],
        [_cmd("verify --level quick --json")],
        [_cmd("severi --d 5 --delta 3 --method floor")],
    ],
}

# Options that do not change what a command prints: both Q routes and
# every --jobs count must print the same value, so they share a reference.
_OUTPUT_NEUTRAL = ("--route", "--jobs")


def reference_key(command: Command) -> str:
    """Key of the stored reference output for a command."""
    kept: list[str] = []
    skip = False
    for token in command:
        if skip:
            skip = False
        elif token in _OUTPUT_NEUTRAL:
            skip = True
        else:
            kept.append(token)
    return " ".join(kept)


def menu_commands(workload: str) -> list[Command]:
    """Every command a workload can run, each once, in menu order."""
    return [c for slot in MENUS[workload] for c in slot]


def all_commands() -> list[Command]:
    """Every command any run can start, the set-up probe included."""
    out = [SETUP_COMMAND]
    for name in MENUS:
        out.extend(c for c in menu_commands(name) if c not in out)
    return out


def bag_size(workload: str) -> int:
    return math.lcm(*(len(slot) for slot in MENUS[workload]))


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"longedge-perfbench:{workload}:{seed}")


def draw_bag(workload: str, rng: random.Random) -> list[list[Command]]:
    """One balanced bag of passes; each pass is a list of commands."""
    size = bag_size(workload)
    columns = []
    for slot in MENUS[workload]:
        column = slot * (size // len(slot))
        rng.shuffle(column)
        columns.append(column)
    passes = [list(cmds) for cmds in zip(*columns)]
    for commands in passes:
        rng.shuffle(commands)
    return passes


def schedule(workload: str, seed: int, bags: int) -> list[list[list[Command]]]:
    """The first ``bags`` bags a run with this seed would draw."""
    rng = make_rng(workload, seed)
    return [draw_bag(workload, rng) for _ in range(bags)]
