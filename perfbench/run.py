"""edakit benchmark: ``eda`` run the way an analyst runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload churn_report --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 7

A closed loop with one client: each command is a fresh ``eda`` process and
the next starts only when the previous one has exited. One sequence is the
workload's whole command list; sequences repeat until the next one would end
after ``--seconds`` (at least one runs). Every output is checked against
independent oracles and by digest against the first sequence.

``--trace 0`` reports the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
setup_s). ``--trace 1`` alternates plain and traced sequences and reports
per-layer self times, counts and rates from spans recorded by
``traced_eda.py``, plus the tracing overhead. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

REQUIRED = ("src/edakit/cli.py", "scripts/make_fixture.py", "data/churn_fixture.csv")
WORK_DIR = ".perfbench_work"
SETUP_REPEATS, SETUP_MIN_S = 3, 2.0  # at least 3 set-ups, and 2 s of them for small inputs
STARTUP_REPEATS = 3
FIXTURE_SEED, FIXTURE_ROWS = 20240, 200  # scripts/make_fixture.py's own settings
EDA = "import sys; from edakit.cli import main; sys.exit(main())"


class Runner:
    """Spawns ``eda`` children, through spawn.py, in one workload's work directory."""

    def __init__(self, root: Path, work: Path, workload, paths: dict):
        self.root, self.work, self.workload = root, work, workload
        env = {k: v for k, v in os.environ.items() if k != "EDA_SEED"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.names = {name: str(p.relative_to(root)) for name, p in paths.items()}
        self.sequences = 0
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, cwd=root, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        """Run one child to exit: its exit code, wall s, cpu s and peak RSS (MB)."""
        req = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        return json.loads(self.launcher.stdout.readline())

    def startup(self) -> float:
        """Median wall time of a child that only imports edakit.cli."""
        log = self.work / "log"
        times = [
            self.spawn([sys.executable, "-c", "import edakit.cli"], log / "startup.out", log / "startup.err")["wall"]
            for _ in range(STARTUP_REPEATS)
        ]
        return statistics.median(times)

    def sequence(self, traced: bool) -> dict:
        """Run every command of the workload once, in order."""
        self.sequences += 1
        tag = f"{'t' if traced else 'u'}{self.sequences}"
        out_dir, log = self.work / "out", self.work / "log"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        commands, spans = [], []
        start = time.perf_counter()
        for i, cmd in enumerate(self.workload.commands):
            out = out_dir / cmd.out if cmd.out else None
            args = [a.format(out=out.relative_to(self.root) if out else "", **self.names) for a in cmd.argv]
            if traced:
                spans.append(log / f"{tag}.{i}.spans.json")
                argv = [sys.executable, str(HERE / "traced_eda.py"), str(spans[-1]), f"{tag}.{i}", *args]
            else:
                argv = [sys.executable, "-c", EDA, *args]
            stdout = log / f"{tag}.{i}.out"
            commands.append({**self.spawn(argv, stdout, log / f"{tag}.{i}.err"), "stdout": stdout, "out": out})
        wall = time.perf_counter() - start
        for c in commands:
            c["digest"] = digest([c["stdout"]] + ([c["out"]] if c["out"] else []))
        return {"wall": wall, "cpu": sum(c["cpu"] for c in commands), "commands": commands, "spans": spans}


def digest(paths: list[Path]) -> str:
    """SHA-256 over the given files, and over every file under given directories
    together with its path inside the directory."""
    h = hashlib.sha256()
    for path in paths:
        if path.is_dir():
            for f in sorted(p for p in path.rglob("*") if p.is_file()):
                h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
        else:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def fixture_matches(fixture, root: Path, work: Path) -> bool:
    """The generator at its own seed and size reproduces data/churn_fixture.csv."""
    from edakit.table import write_csv
    from workloads import build_table

    path = work / "fixture_check.csv"
    write_csv(build_table(fixture, FIXTURE_ROWS, FIXTURE_SEED), path)
    return path.read_bytes() == (root / "data" / "churn_fixture.csv").read_bytes()


def run_workload(root: Path, workload, fixture, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import make_inputs

    work = root / WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    (work / "log").mkdir()
    problems = []
    if not fixture_matches(fixture, root, work):
        problems.append("fixture generator does not reproduce data/churn_fixture.csv")

    setup_times, input_digests = [], set()
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        start = time.perf_counter()
        tables, paths = make_inputs(workload, fixture, seed, work / "in")
        setup_times.append(time.perf_counter() - start)
        input_digests.add(digest(sorted(paths.values())))
    if len(input_digests) != 1:
        problems.append("the same seed gave different inputs")

    plain, traced = [], []
    with Runner(root, work, workload, paths) as runner:
        startup = runner.startup()  # also compiles edakit's bytecode before timing
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            plain.append(runner.sequence(traced=False))
            if trace:
                traced.append(runner.sequence(traced=True))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break

    # correctness: exit codes, digests against the first plain sequence, oracles
    reference = [c["digest"] for c in plain[0]["commands"]]
    attempted = failed = 0
    for i, cmd in enumerate(workload.commands):
        runs = [s["commands"][i] for s in plain + traced]
        attempted += len(runs)
        label = f"command {i} (eda {cmd.argv[0]})"
        bad = [r for r in runs if r["code"] != 0 or r["digest"] != reference[i]]
        for r in bad:
            same = "same" if r["digest"] == reference[i] else "different"
            problems.append(f"{label}: exit {r['code']}, {same} output digest")
        last = plain[-1]["commands"][i]
        found = cmd.check(tables, last["stdout"].read_bytes(), last["out"]) if last["code"] == 0 else ["failed"]
        if found:
            problems += [f"{label}: {p}" for p in found]
            bad = runs
        failed += len(bad)

    samples = {  # name -> (values, unit); a metric's value is their median
        "wall_s": ([s["wall"] for s in plain], "s"),
        "cpu_s": ([s["cpu"] for s in plain], "s"),
        "peak_rss_mb": ([max(c["rss"] for s in plain for c in s["commands"])], "MB"),
        "setup_s": (setup_times, "s"),
    }
    if trace:
        metrics = trace_metrics(workload, plain, traced, startup)
    else:
        metrics = {name: {"value": statistics.median(v), "unit": unit} for name, (v, unit) in samples.items()}
    report(workload, seed, samples, attempted, failed, problems)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace_metrics(workload, plain: list, traced: list, startup: float) -> dict:
    """Per-layer metrics: the median over traced sequences of each value."""
    from tracer import LAYERS, layer_metrics

    n_commands = len(workload.commands)
    per_sequence = []
    for seq in traced:
        m = layer_metrics([json.loads(p.read_text(encoding="utf-8")) for p in seq["spans"]])
        m["cli.startup_s"] = startup
        m["cli.stdout_bytes"] = sum(c["stdout"].stat().st_size for c in seq["commands"])
        accounted = n_commands * startup + sum(m[f"{layer}.self_s"] for layer in LAYERS)
        for layer in LAYERS:
            m[f"{layer}.share"] = m[f"{layer}.self_s"] / seq["wall"]
        m["cli.startup.share"] = n_commands * startup / seq["wall"]
        m["trace.wall_s"] = seq["wall"]
        m["trace.unaccounted_s"] = seq["wall"] - accounted
        per_sequence.append(m)
    units = {"_s": "s", "ns_per_cell": "ns/cell", "ns_per_pair": "ns/pair", "ns_per_merge": "ns/merge",
             "share": "1", "bytes": "bytes", "bytes_written": "bytes"}
    metrics = {}
    for name in per_sequence[0]:
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": statistics.median(m[name] for m in per_sequence), "unit": unit}
    untraced = statistics.median(s["wall"] for s in plain)
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": metrics["trace.wall_s"]["value"] - untraced, "unit": "s"}
    return metrics


def report(workload, seed, samples, attempted, failed, problems) -> None:
    """Human-readable summary: each metric's median, quartiles and sample count."""
    print(f"{workload.name} seed {seed}: {len(workload.commands)} command(s) per sequence")
    for name, (values, unit) in samples.items():
        q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2]) if len(values) > 1 else (values[0], values[0])
        print(f"  {name:12s} {statistics.median(values):10.4f} {unit:3s} q1 {q1:.4f} q3 {q3:.4f} n {len(values)}")
    print(f"  {'fail_ratio':12s} {failed / attempted:10.4f} 1   ({failed} of {attempted} commands)")
    for p in problems[:20]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"run from the edakit repository root; missing {missing}", file=sys.stderr)
        return 2

    from workloads import load_fixture_module

    fixture = load_fixture_module(root)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(root, WORKLOADS[n], fixture, args.seed, args.seconds, bool(args.trace)) for n in names
    ]
    for r in results:
        print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
