"""Benchmark of the ldgrad CLI: workloads, output checks, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload flows --seed 0 --seconds 40 --trace 0

With --trace 0 every CLI command runs in its own fresh process, one at a
time (a closed loop with one client), and the end-to-end metrics are
reported.  With --trace 1 the commands run in this process through
`cli.main(argv)`, once untraced and once with the per-layer tracer, and the
per-layer metrics are reported.  Every run checks the outputs of every
command and that repeated runs give byte-identical outputs.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/DESIGN.md for the choice of workloads and
metrics.
"""

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_out")  # relative to ROOT, the working directory
SETUP_PER_PASS = 2
CHILD_TIMEOUT_S = 90


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def child_env():
    env = dict(os.environ)
    # cli._out_dir prefers OUT_DIR over --out.
    env.pop("OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log, env):
    """Run one process to completion; returns (exit code, seconds, peak RSS
    in MB).  wait4 blocks without polling, so the timing has no sleep
    granularity, and gives this child's own peak RSS."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            status = None
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - t0
    proc.returncode = ("timeout" if status is None
                       else os.waitstatus_to_exitcode(status))
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def import_cli(env, work):
    """Seconds for a fresh process to import ldgrad.cli, or None if it
    fails."""
    code, seconds, _ = run_child([sys.executable, "-c", "import ldgrad.cli"],
                                 work / "setup.log", env)
    if code != 0:
        print("FAIL setup: import exited %r" % (code,), file=sys.stderr)
        return None
    return seconds


def cli_argv(run, out):
    return [sys.executable, "-m", "ldgrad.cli"] + run.argv + ["--out",
                                                              str(out)]


class Tally:
    """Attempted and failed CLI runs; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_names = set()

    def record(self, name, code, problems):
        if code != 0:
            problems = ["exit code %r" % (code,)]
        for p in problems:
            print("FAIL %s: %s" % (name, p), file=sys.stderr)
        if problems:
            self.failed_names.add(name)
        return not problems

    def timed(self, name, code, problems):
        self.attempted += 1
        ok = self.record(name, code, problems)
        self.failed += not ok
        return ok


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary_line(name, unit, values):
    q1, q3 = quartiles(values)
    print("  %-24s median %.6g %s  q1 %.6g  q3 %.6g  n=%d"
          % (name, statistics.median(values), unit, q1, q3, len(values)))


def timed_run(args, runs, probes, work):
    env = child_env()
    tally = Tally()
    # The first import fills the bytecode and page caches; it is untimed.
    if import_cli(env, work) is None:
        return None

    probe_codes = {}
    for probe in probes:
        out = work / "probe" / probe.name
        code, _, _ = run_child(cli_argv(probe, out), work / "probe.log", env)
        probe_codes[probe.name] = code
        tally.record(probe.name, code,
                     checks.run_check(probe.check, out) if code == 0 else [])

    setup, walls, per_cmd, per_run, rss = [], [], {}, {}, 0.0
    t_start = time.perf_counter()
    iteration_s = []  # a pass with its set-up samples and checks
    while (len(walls) < 2 or time.perf_counter() - t_start
           + statistics.median(iteration_s) <= args.seconds):
        t_iter = time.perf_counter()
        k = len(walls)
        pass_dir = work / ("pass%d" % k)
        pass_dir.mkdir(parents=True)
        # Set-up samples are spread over the run, like the passes, so that
        # both see the same mix of machine states.
        for _ in range(SETUP_PER_PASS):
            seconds = import_cli(env, work)
            if seconds is None:
                return None
            setup.append(seconds)
        wall, cmd_s = 0.0, {}
        for run in runs:
            out = pass_dir / run.name
            code, seconds, mb = run_child(cli_argv(run, out),
                                          pass_dir / (run.name + ".log"), env)
            wall += seconds
            per_run.setdefault(run.name, []).append(seconds)
            cmd_s[run.argv[0]] = cmd_s.get(run.argv[0], 0.0) + seconds
            rss = max(rss, mb)
            problems = []
            if code == 0:
                problems = checks.run_check(run.check, out)
                if k:
                    problems += checks.same_outputs(work / "pass0" / run.name,
                                                    out)
            tally.timed(run.name, code, problems)
        walls.append(wall)
        for cmd, seconds in cmd_s.items():
            per_cmd.setdefault(cmd + "_s", []).append(seconds)
        if k:
            shutil.rmtree(pass_dir)
        iteration_s.append(time.perf_counter() - t_iter)

    (work / "samples.json").write_text(json.dumps(
        {"setup_s": setup, "pass_s": walls, "run_s": per_run}, indent=1))
    n_ops = len(runs) + len(probes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_ok_frac": (1.0 - len(tally.failed_names) / n_ops, "frac"),
    }
    print("workload %s, seed %d: %d passes, %d timed CLI runs, %d failed"
          % (args.workload, args.seed, len(walls), tally.attempted,
             tally.failed))
    summary_line("setup_s", "s", setup)
    summary_line("wall_s", "s", walls)
    print("  %-24s %s" % ("wall_s per pass",
                          " ".join("%.4f" % w for w in walls)))
    for name, values in sorted(per_cmd.items()):
        summary_line(name, "s", values)
    print("  %-24s %.6g MB" % ("peak_rss_mb", rss))
    print("  %-24s %.6g  (%d of %d distinct runs failed%s)"
          % ("ops_ok_frac", metrics["ops_ok_frac"][0],
             len(tally.failed_names), n_ops,
             "".join("; probe %s exit %r" % kv for kv in probe_codes.items())))
    return tally, metrics


def in_process(cli, run, out):
    """cli.main(argv) in this process; returns the exit code, or the
    exception that escaped main."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.main(run.argv + ["--out", str(out)])
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # reported as a failed run
            return repr(exc)


def in_process_checked(cli, run, out, tally, ref=None):
    """Run, check and, with `ref`, compare against a previous run's outputs;
    returns the seconds spent in cli.main."""
    t0 = time.perf_counter()
    code = in_process(cli, run, out)
    seconds = time.perf_counter() - t0
    problems = []
    if code == 0:
        problems = checks.run_check(run.check, out)
        if ref is not None:
            problems += checks.same_outputs(ref, out)
    tally.timed(run.name, code, problems)
    return seconds


def traced_run(args, runs, work):
    sys.path.insert(0, str(SRC))
    import ldgrad
    from ldgrad import cli

    tally = Tally()
    passes = []  # (untraced seconds, traced seconds, tracer, pass index)
    t_start = time.perf_counter()
    while not passes or (time.perf_counter() - t_start
                         + passes[-1][0] + passes[-1][1] <= args.seconds):
        k = len(passes)
        tracer = tracing.Tracer()
        untraced = traced = 0.0
        # Each command runs untraced and traced back to back, so that both
        # see the same machine state; which goes first alternates, because
        # a repeated command runs faster in a warm process.
        for i, run in enumerate(runs):
            ref = work / ("untraced%d" % k) / run.name
            out = work / ("traced%d" % k) / run.name
            if (i + k) % 2:
                with tracer.installed(ldgrad):
                    traced += in_process_checked(cli, run, out, tally)
                untraced += in_process_checked(cli, run, ref, tally, out)
            else:
                untraced += in_process_checked(cli, run, ref, tally)
                with tracer.installed(ldgrad):
                    traced += in_process_checked(cli, run, out, tally, ref)
        passes.append((untraced, traced, tracer, k))

    _, wall, tracer, k = sorted(passes, key=lambda p: p[1])[len(passes) // 2]
    shares = tracer.module_self_seconds()

    sweep = tracing.Tracer()
    sweep_runs = workloads.build_sweep(args.seed, work / "inputs")
    with sweep.installed(ldgrad):
        for run in sweep_runs:
            in_process_checked(cli, run, work / "sweep" / run.name, tally)
    total = tracer.merged(sweep)
    (work / "trace.json").write_text(json.dumps(
        {"pass": tracer.to_json(), "sweep": sweep.to_json()}, indent=1))

    metrics = total.metrics()
    metrics["cli.output_bytes"] = (
        checks.output_bytes(work / ("traced%d" % k))
        + checks.output_bytes(work / "sweep"), "bytes")
    kernels = tracing.lagrangian_sweep(ldgrad, args.seed)
    if kernels is None:
        total.absent.append("markov.lagrangian")
        kernels = {"markov.lagrangian.ms.J%d" % J: (0.0, "ms")
                   for J in tracing.KERNEL_J}
    metrics.update(kernels)
    overhead = statistics.median(p[1] - p[0] for p in passes)
    metrics["trace.overhead_s"] = (overhead, "s")
    for module, seconds in shares.items():
        metrics["share." + module] = (seconds / wall, "frac")

    print("workload %s, seed %d: %d in-process passes, each command untraced "
          "then traced" % (args.workload, args.seed, len(passes)))
    print("  traced pass %.3f s, tracing overhead %.3f s" % (wall, overhead))
    print("  self-time share by module: %s" % ", ".join(
        "%s %.3f" % (m, s / wall) for m, s in shares.items()))
    if total.absent:
        print("  absent (metrics read 0): %s" % ", ".join(total.absent))
    return tally, metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ldgrad" / "cli.py").is_file():
        print("bench: no ldgrad sources under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("OUT_DIR", None)
    signal.signal(signal.SIGALRM, _alarm)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runs, probes = workloads.build(args.workload, args.seed, work / "inputs")
    if args.trace:
        tally, metrics = traced_run(args, runs, work)
    else:
        result = timed_run(args, runs, probes, work)
        if result is None:
            return 3
        tally, metrics = result
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
