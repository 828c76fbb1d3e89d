"""lineembed benchmark: the CLI run the way a user runs it, file in, file out.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up writes the workload's inputs for one
pass (its instances, generated from the seed); then whole passes run, one
``python -m lineembed.cli`` child at a time, for about S seconds.  Timings
are means over the whole passes of a run (see README.md for why).
Every output is checked (see checks.py).  The last line of stdout is one
JSON object: correct, attempted and failed operations (one operation is one
CLI command), and the metrics: end-to-end with --trace 0, per layer with
--trace 1, where every command runs under traced_cli.py instead.  Trace and
result files go to benchmark/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

from spans import LAYERS, SETUP_LAYERS, Tracer, instrument

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("complete-1000", "dp-20", "reduce-lift")
COMMAND_TIMEOUT_S = 60.0
# Set-up is timed over at least this long and this many instances.
SETUP_MIN_S = 1.0
SETUP_MIN_INSTANCES = 2
# No pass starts once this much time has gone by since start-up, so that a
# run ends well inside three minutes whatever --seconds says.
LAST_PASS_START_S = 120.0

END_TO_END = {"job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_command(argv, workdir: Path, env) -> tuple[int, str, float, float]:
    """(exit code, stdout, wall seconds, peak RSS in MB) of one child."""
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = (workdir / "stdout.txt").read_text()
    if code != 0:
        sys.stderr.write((workdir / "stderr.txt").read_text()[-2000:])
    return code, stdout, wall, usage.ru_maxrss / 1024.0


def layer_metrics(spans: list[dict], jobs: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run: medians over calls, 0 for a
    layer the workload does not run.  A call's duration includes the traced
    layers it calls; the trace file keeps each span's parent."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    def durations(name: str) -> float:
        return med([s["end"] - s["start"] for s in by_name[name]])

    metrics = {"traced.job_s": (statistics.fmean(job["wall"] for job in jobs), "s")}
    for name in ["cli.import", "cli.solve", "cli.verify", "cli.reduce", "cli.lift",
                 *LAYERS, "core.edge_arrays"]:
        metrics[f"{name}_s"] = (durations(name), "s")
    for name in ("formats.parse_signed_graph", "solvers.reachability_table"):
        metrics[f"{name}_peak_mb"] = (med([s["attrs"]["peak_mb"] for s in by_name[name]]), "MB")
    tables = [s["attrs"] for s in by_name["solvers.reachability_table"] if "table_entries" in s["attrs"]]
    metrics["solvers.table_entries"] = (med([t["table_entries"] for t in tables]), "count")
    entries = sum(t["table_entries"] for t in tables)
    metrics["solvers.reachable_share"] = (
        sum(t["reachable"] for t in tables) / entries if entries else 0.0, "ratio")
    metrics["core.verify_embedding_calls"] = (
        med([job["verify_calls"] for job in jobs if job["verify_calls"]]), "count")
    return metrics


def run_step(step, workdir: Path, env, tracer, job: dict):
    """Run one step's CLI command, under traced_cli.py when tracing."""
    if tracer is None:
        return run_command([sys.executable, "-m", "lineembed.cli", *step.args], workdir, env)
    spans_file = workdir / "spans.json"
    with tracer.span(f"cli.{step.command}") as cmd:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), repr(time.monotonic()),
                str(spans_file), f"{cmd['id']}.", cmd["id"], "--", *step.args]
        outcome = run_command(argv, workdir, env)
    if spans_file.exists():
        child = json.loads(spans_file.read_text())
        spans_file.unlink()
        tracer.spans.extend(child)
        job["verify_calls"] += sum(s["name"] == "core.verify_embedding" for s in child)
    return outcome


def main(argv=None) -> int:
    # A terminated benchmark still stops its child (see run_command).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lineembed" / "cli.py").is_file():
        print(f"error: no lineembed sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    begun = time.monotonic()
    sys.path.insert(0, str(SRC))
    import workloads

    # Byte-compile once, so no child pays for it inside a timed command.
    compileall.compile_dir(SRC / "lineembed", quiet=1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tracer = Tracer(prefix="d") if args.trace else None
    if tracer is not None:
        instrument(tracer, SETUP_LAYERS)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    attempted = 0
    failures: list[str] = []  # commands that did not exit 0
    problems: list[str] = []  # outputs of commands that did, found wrong
    commands: list[tuple[str, str, float]] = []  # (instance, arguments, wall s)
    jobs: list[dict] = []
    peak_rss = 0.0
    try:
        # Round 0 of set-up writes the pass that runs.  Further rounds build
        # other instances from the same seed into a spare directory, emptied
        # after each round so that every round writes new files as round 0
        # does, until set-up has been timed over SETUP_MIN_S and
        # SETUP_MIN_INSTANCES: setup_s is a median over distinct instances.
        setup_times: list[float] = []
        spare = workdir / "setup"
        spare.mkdir()
        for round_ in itertools.count():
            if round_ and sum(setup_times) >= SETUP_MIN_S and len(setup_times) >= SETUP_MIN_INSTANCES:
                break
            recipes = workloads.recipes(args.workload, args.seed, spare if round_ else workdir, round_)
            built = []
            for index, (build, _) in enumerate(recipes):
                with tracer.span("bench.setup", instance=index) if tracer else nullcontext():
                    start = time.monotonic()
                    built.append(build())
                    setup_times.append(time.monotonic() - start)
            if round_ == 0:
                instances = [finish(b) for (_, finish), b in zip(recipes, built)]
            for spent in spare.iterdir():
                spent.unlink()

        measure_start = pass_start = time.monotonic()
        while True:
            for inst in instances:
                job = {"instance": inst.name, "wall": 0.0, "verify_calls": 0}
                with tracer.span("bench.job", instance=inst.name) if tracer else nullcontext():
                    for step in inst.steps:
                        attempted += 1
                        code, stdout, wall, rss = run_step(step, workdir, env, tracer, job)
                        commands.append((inst.name, " ".join(step.args), wall))
                        job["wall"] += wall
                        peak_rss = max(peak_rss, rss)
                        if code != 0:
                            failures.append(f"{inst.name} {step.command}: exit code {code}")
                            break
                        try:
                            problem = step.check(code, stdout)
                        except (OSError, ValueError) as exc:
                            problem = f"{inst.name} {step.command}: unreadable output: {exc}"
                        if problem:
                            problems.append(problem)
                jobs.append(job)
            # Another pass only if it would end nearer to --seconds than this
            # one did, so runs hold whole passes and overshoot by at most half.
            now = time.monotonic()
            elapsed, last_pass, pass_start = now - measure_start, now - pass_start, now
            if elapsed + last_pass / 2 >= args.seconds or now - begun >= LAST_PASS_START_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in failures + problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer is None:
        values = {
            "job_s": statistics.fmean(job["wall"] for job in jobs),
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        metrics = layer_metrics(tracer.spans, jobs)
        tracer.write(str(OUT / f"trace-{tag}.json"))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, inputs=[dict(inst.facts, instance=inst.name) for inst in instances],
                  setup_s=setup_times, commands=commands)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
