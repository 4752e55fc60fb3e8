"""End-to-end and traced benchmark of the `longedge` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload severi --seed 1 --seconds 60 --trace 0

Every command runs as a fresh `python -m longedge.cli` process, one after
another (a closed loop with one client).  With `--trace 0` the run first
times the trivial set-up command, then runs whole bags of passes (see
workloads.py) for about `--seconds` seconds and reports the end-to-end
metrics.  With `--trace 1` it runs each distinct command of the seed's
first bag once untraced and once under perfbench/tracer.py, and reports
the per-layer metrics.  Every output is checked against references.json
outside the timed region.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
TRACER = BENCH_DIR / "tracer.py"

# Set-up probes run at the start and after every pass, so that their
# median samples the machine over the whole run, not one moment of it.
SETUP_FIRST = 5
SETUP_PER_PASS = 2
# Every run must end within 180 s; commands still running at this point
# are killed and counted as failed.
DEADLINE_S = 165.0
# On a shared 2-vCPU virtual machine, speed drifted by up to 40% within
# ten minutes (hypervisor steal, contention on each vCPU), far more than
# the bounds allow.  End-to-end times are therefore scaled to the speed at
# which calibrate() takes this long, using the mean of calibrations taken
# between the run's commands.
CALIBRATION_REF_S = 0.03

E2E_METRICS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metrics taken from the tracer's span self times and counters.
# A `_s` metric is the summed self time of the spans of that name.
SPAN_METRICS = (
    "templates.enumerate_templates",
    "templates.enumerate_graphs",
    "counting.severi_degree",
    "counting.n_graph",
    "counting.orderings_oracle",
    "qcalc.q_delta_templates",
    "qcalc.q_delta_log",
    "qcalc.q_graph",
    "qcalc.sigma",
    "polynomials.node_polynomial",
    "polynomials.interpolate",
    "floor_diagrams.fmcount",
    "floor_diagrams.enumerate_floor_diagrams",
    "acceptance.run_criteria",
)
COUNT_METRICS = {
    "templates.templates_built": "templates.templates_built",
    "templates.graphs_yielded": "templates.enumerate_graphs.yielded",
    "counting.severi_degree_calls": "counting.severi_degree.calls",
    "counting.n_graph_calls": "counting.n_graph.calls",
    "counting.n_star_calls": "counting.n_star.calls",
    "graphs.is_allowable_calls": "graphs.is_allowable.calls",
    "graphs.weight_profile_calls": "graphs.weight_profile.calls",
    "qcalc.q_graph_calls": "qcalc.q_graph.calls",
    "qcalc.q_star_calls": "qcalc.q_star.calls",
    "qcalc.set_partitions_calls": "qcalc.set_partitions.calls",
    "floor_diagrams.diagrams": "floor_diagrams.diagrams",
}
MODULES = (
    "cli", "templates", "counting", "qcalc", "polynomials", "floor_diagrams", "acceptance",
)
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.absent": "count",
}


def load_references() -> dict:
    """Stored output of every menu command, keyed by workloads.reference_key."""
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["outputs"]


def per_layer_metrics(references: dict) -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    out = {"cli.import_s": "s", "cli.main_s": "s"}
    out.update({f"{name}_s": "s" for name in SPAN_METRICS})
    out.update({name: "count" for name in COUNT_METRICS})
    out["qcalc.q_graph_nonzero_frac"] = "ratio"
    out.update({f"{module}.self_s": "s" for module in MODULES})
    for criterion in references["verify --level quick --json"]["criteria"]:
        out[f"acceptance.{criterion}_s"] = "s"
    out.update(TRACE_METRICS)
    return out


@dataclass
class Outcome:
    command: Command
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mib: float


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = _environment()


def run_command(command: Command, deadline: float, traced: bool = False) -> Outcome:
    """Run one command as a fresh process, plain or under tracer.py.  Its
    rusage covers it and its waited-for descendants (pool workers).  The
    process and everything it started are killed at ``deadline``."""
    prefix = [sys.executable, str(TRACER)] if traced else [sys.executable, "-m", "longedge.cli"]
    started = time.perf_counter()
    proc = subprocess.Popen(
        prefix + list(command), cwd=ROOT, env=ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    finally:
        timer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        command, proc.returncode, out.decode(), b"".join(errors).decode(), wall,
        usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
    )


def canonical_output(command: Command, stdout: str) -> str:
    """Printed values only: `verify --json` timings are dropped."""
    if command[0] == "verify" and "--json" in command:
        try:
            records = [{k: v for k, v in r.items() if k != "seconds"} for r in json.loads(stdout)]
        except (json.JSONDecodeError, TypeError, AttributeError):
            return stdout
        return json.dumps(records)
    return stdout


def check(references: dict, command: Command, code: int, stdout: str) -> str | None:
    """None when the command succeeded with the stored output, else why not."""
    if code != 0:
        return f"exit code {code}"
    ref = references.get(workloads.reference_key(command))
    if ref is None:
        return "no stored reference"
    if "stdout" in ref:
        return None if stdout == ref["stdout"] else "stdout differs from reference"
    if "sha256" in ref:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return None if digest == ref["sha256"] else "stdout hash differs from reference"
    try:
        records = json.loads(stdout)
        failed = [r["name"] for r in records if r["passed"] is not True]
        ran = {r["name"] for r in records}
    except (json.JSONDecodeError, TypeError, KeyError):
        return "verify output is not a list of criterion records"
    if failed:
        return f"FAIL: {', '.join(failed)}"
    missing = set(ref["criteria"]) - ran
    return f"criteria not run: {sorted(missing)}" if missing else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "load1_before": os.getloadavg()[0],
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def tail_note(samples: list[float]) -> str:
    """Median and sample count.  A run never has the 20 samples needed for
    a percentile above the median with ten samples beyond it."""
    return f"median {statistics.median(samples):.4f} (n={len(samples)})"


class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self, references: dict) -> None:
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, outcome: Outcome) -> None:
        self.count(outcome, check(self.references, outcome.command, outcome.code, outcome.stdout))

    def count(self, outcome: Outcome, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                detail = outcome.stderr.strip().splitlines()[-1:] if outcome.stderr else []
                self.reasons.append(f"{' '.join(outcome.command)}: {reason} {detail}")


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python kernel: tuples
    from itertools.product counted into small dicts, the kind of work
    longedge's hot loops do."""
    started = time.perf_counter()
    for _ in range(3):
        for dist in itertools.product(range(5), repeat=6):
            counts: dict[int, int] = {}
            for gap in dist:
                counts[gap] = counts.get(gap, 0) + 1
    return time.perf_counter() - started


def measure(workload: str, seed: int, seconds: float, tally: Tally, deadline: float) -> dict:
    """End-to-end metrics: set-up probes, then whole bags of passes.

    calibrate() runs after every command and probe.  Times are reported
    scaled by CALIBRATION_REF_S over the run's mean calibration time.
    """
    setup: list[float] = []
    speeds: list[float] = []

    def run(command: Command) -> Outcome:
        outcome = run_command(command, deadline)
        speeds.append(calibrate())
        tally.record(outcome)
        return outcome

    def probe(times: int) -> None:
        setup.extend(run(workloads.SETUP_COMMAND).wall_s for _ in range(times))

    probe(1)
    setup.clear()  # the first start also writes the bytecode cache
    probe(SETUP_FIRST)

    rng = workloads.make_rng(workload, seed)
    bag_walls, bag_cpus, bag_rss = [], [], []
    command_walls: dict[str, list[float]] = {}
    measured = 0.0
    while True:
        passes = workloads.draw_bag(workload, rng)
        wall = cpu = rss = 0.0
        for commands in passes:
            for command in commands:
                outcome = run(command)
                wall += outcome.wall_s
                cpu += outcome.cpu_s
                rss = max(rss, outcome.rss_mib)
                command_walls.setdefault(" ".join(command), []).append(outcome.wall_s)
            probe(SETUP_PER_PASS)
        bag_walls.append(wall / len(passes))
        bag_cpus.append(cpu / len(passes))
        bag_rss.append(rss)
        measured += wall
        # Stop when one more bag would end over half a bag past --seconds.
        if measured + wall / 2 > seconds or time.monotonic() + 1.5 * wall > deadline:
            break

    scale = CALIBRATION_REF_S / statistics.mean(speeds)
    print(f"# calibration: mean {statistics.mean(speeds):.5f} s (n={len(speeds)}), "
          f"scale {scale:.4f}; unscaled values follow")
    print(f"# setup_s samples: {tail_note(setup)}")
    print(f"# wall per pass: {tail_note(bag_walls)} bags")
    print(f"# cpu per pass: {tail_note(bag_cpus)} bags")
    for text, walls in command_walls.items():
        print(f"#   {text}: {tail_note(walls)}")
    return {
        "wall_s": statistics.median(bag_walls) * scale,
        "setup_s": statistics.median(setup) * scale,
        "cpu_s": statistics.median(bag_cpus) * scale,
        "peak_rss_mib": statistics.median(bag_rss),
    }


def layer_values(summary: dict) -> dict[str, float]:
    """Per-layer values of one traced command."""
    self_s = summary["self_s"]
    counts = summary["counts"]
    values = {"cli.import_s": summary["import_s"], "cli.main_s": summary["main_s"]}
    for name in SPAN_METRICS:
        values[f"{name}_s"] = self_s.get(name, 0.0)
    for metric, key in COUNT_METRICS.items():
        values[metric] = counts.get(key, 0)
    values["qcalc.q_graph_nonzero"] = counts.get("qcalc.q_graph.nonzero", 0)
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == module
        )
    values["trace.spans"] = summary["spans"]
    return values


def trace(workload: str, seed: int, tally: Tally, references: dict, deadline: float) -> dict:
    """Per-layer metrics per pass, from each distinct command of one bag."""
    passes = workloads.draw_bag(workload, workloads.make_rng(workload, seed))
    multiplicity: dict[Command, int] = {}
    for commands in passes:
        for command in commands:
            multiplicity[command] = multiplicity.get(command, 0) + 1

    totals: dict[str, float] = {}
    absent: set[str] = set()

    def add(name: str, value: float, times: int) -> None:
        totals[name] = totals.get(name, 0.0) + value * times

    for command, times in multiplicity.items():
        plain = run_command(command, deadline)
        plain_ok = check(references, command, plain.code, plain.stdout) is None
        tally.record(plain)
        traced = run_command(command, deadline, traced=True)
        try:
            summary = json.loads(traced.stdout)
        except json.JSONDecodeError:
            tally.count(traced, f"tracer printed no summary (exit {traced.code})")
            continue
        reason = check(references, command, summary["exit"], summary["stdout"])
        if reason is None and canonical_output(command, summary["stdout"]) != canonical_output(
            command, plain.stdout
        ):
            reason = "traced output differs from untraced output"
        tally.count(traced, reason)
        absent.update(summary["absent"])
        for name, value in layer_values(summary).items():
            add(name, value, times)
        add("trace.wall_s", traced.wall_s, times)
        add("trace.untraced_wall_s", plain.wall_s, times)
        if command[0] == "verify" and plain_ok:
            for record in json.loads(plain.stdout):
                add(f"acceptance.{record['name']}_s", record["seconds"], times)

    per_pass = {name: value / len(passes) for name, value in totals.items()}
    calls = per_pass.get("qcalc.q_graph_calls", 0.0)
    per_pass["qcalc.q_graph_nonzero_frac"] = (
        per_pass.pop("qcalc.q_graph_nonzero", 0.0) / calls if calls else 0.0
    )
    per_pass["trace.overhead_s"] = per_pass.get("trace.wall_s", 0.0) - per_pass.get(
        "trace.untraced_wall_s", 0.0
    )
    per_pass["trace.absent"] = len(absent)

    split = ", ".join(f"{m} {per_pass.get(f'{m}.self_s', 0.0):.3f}" for m in MODULES)
    self_sum = sum(per_pass.get(f"{m}.self_s", 0.0) for m in MODULES)
    print(f"# traced commands: {len(multiplicity)} distinct, {len(passes)} passes per bag")
    print(f"# self time per pass by module: {split}")
    print(
        f"# self-time sum {self_sum:.3f} s; cli.main_s {per_pass.get('cli.main_s', 0.0):.3f} s; "
        f"traced wall_s {per_pass.get('trace.wall_s', 0.0):.3f} s; "
        f"untraced wall_s {per_pass.get('trace.untraced_wall_s', 0.0):.3f} s"
    )
    print(f"# absent wrapped names: {sorted(absent) or 'none'}")
    return per_pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MENUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "longedge" / "cli.py").is_file():
        print(f"error: no longedge package under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES}", file=sys.stderr)
        return 2
    references = load_references()
    env = environment(args.seed)
    tally = Tally(references)

    if args.trace:
        values = trace(args.workload, args.seed, tally, references, deadline)
        units = per_layer_metrics(references)
    else:
        values = measure(args.workload, args.seed, args.seconds, tally, deadline)
        units = E2E_METRICS
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}

    env["load1_after"] = os.getloadavg()[0]
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"#   {name:48s} {metric['value']:14.6f} {metric['unit']}")
    print(f"#   {'fail_frac':48s} {tally.failed / max(1, tally.attempted):14.6f} ratio "
          f"({tally.failed} of {tally.attempted} commands)")
    for reason in tally.reasons:
        print(f"# failure: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
