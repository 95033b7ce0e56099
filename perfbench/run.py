"""Benchmark of the greedy-ou command line, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload pga-n2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run is one process.  It warms up on the workload's smoke config, then
runs CLI commands through `cli.main` in process, each on the next config
generated from the seed, until --seconds is spent.  Before each command it
times set-up (validate_config + build_problem + build_target) on that
config for a fraction of a second.  Every command's outputs are checked.
With --trace 0 the last stdout line carries the end-to-end metrics, in
reference-host seconds: a fixed kernel timed before and after each command
gives the host's slowdown, and the command and its set-ups are divided by
it (see hostspeed.py).  With --trace 1 each config runs once untraced and
once traced (order alternating), the traced run's spans give the per-layer
metrics, and the two runs' outputs must be byte-identical.  Earlier stdout
lines give every metric with its unit and sample count, and the environment.
Records and spans are written under .perfbench/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_solve, check_spectrum
from hostspeed import SECONDS_PER_MEASUREMENT, slowdown
from spans import Tracer, layer_metrics
from workloads import SOLVE, WORKLOADS, config_for, config_hash

# BLAS is pinned before numpy loads (in import_program), so timings measure
# one thread, not the scheduler
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# set-up is timed for about this long before each command, so its samples
# spread over the whole run like the commands' own
SETUP_SECONDS_PER_COMMAND = 0.1


def import_program():
    src = ROOT / "src"
    if not (src / "greedy_ou" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no greedy_ou sources under {src}")
    sys.path.insert(0, str(src))
    from greedy_ou import cli, config
    return cli, config


@dataclass
class Outcome:
    seconds: float
    problems: list
    outputs: bytes  # every CSV and JSON output, for byte comparisons
    errs: list = field(default_factory=list)  # err_energy column of solve.csv


@dataclass
class Tally:
    """Command runs attempted and failed, with what failed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, tag, *outcomes):
        """Count one run per outcome; outcomes of one config must match byte for byte."""
        for o in outcomes:
            self.attempted += 1
            self.problems.extend(f"{tag}: {p}" for p in o.problems)
        bad = sum(bool(o.problems) for o in outcomes)
        if len({o.outputs for o in outcomes}) > 1:
            self.problems.append(f"{tag}: outputs differ between runs of one config")
            bad = max(bad, 1)
        self.failed += bad


class Runner:
    """Writes configs and runs one workload command at a time."""

    def __init__(self, workload, seed, smoke, work_dir, cli):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = work_dir
        self.cli = cli
        self.hashes = {}

    def config(self, k, smoke=None):
        return config_for(self.workload, self.seed, k, self.smoke if smoke is None else smoke)

    def run(self, raw, tag, main=None) -> Outcome:
        main = main or self.cli.main
        path = self.work / f"config-{tag}.json"
        path.write_text(json.dumps(raw, indent=1))
        self.hashes[tag] = config_hash(raw)
        out = self.work / f"out-{tag}"
        argv = ["--config", str(path), "--out", str(out)]
        if self.workload.kind == SOLVE:
            started = time.perf_counter()
            code = main(["solve", *argv])
            seconds = time.perf_counter() - started
            problems, errs = check_solve(code, out, raw)
            names = ["solve.csv"]
        else:
            started = time.perf_counter()
            codes = (main(["eig", *argv]), main(["regularity", *argv]))
            seconds = time.perf_counter() - started
            problems, errs = check_spectrum(codes, out, raw), []
            names = ["eig.csv", "regularity.json"]
        outputs = b"".join((out / n).read_bytes() for n in names if (out / n).is_file())
        shutil.rmtree(out, ignore_errors=True)
        return Outcome(seconds, problems, outputs, errs)


def environment(seed):
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "seed": seed,
    }


def time_setup(config_module, raw, samples):
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cfg = config_module.validate_config(raw)
        form, mats = config_module.build_problem(cfg)
        config_module.build_target(cfg, form, mats)
        samples.append(time.perf_counter() - t0)
        if time.perf_counter() - started >= SETUP_SECONDS_PER_COMMAND:
            return


def warm_up(runner, tally, tracer=None):
    """Smoke config twice, the second time traced if a tracer is given."""
    raw = runner.config(0, smoke=True)
    first = runner.run(raw, "warm-a")
    if tracer is None:
        second = runner.run(raw, "warm-b")
    else:
        with tracer.installed():
            second = runner.run(raw, "warm-b", tracer.wrap("cli.main", runner.cli.main))
    tally.add("warm-up", first, second)


def measure_untraced(runner, seconds, tally, config_module):
    """Commands on configs 0, 1, ..., each after a few timed set-ups.

    The host's slowdown is measured before the first command and after
    each one; returns the outcomes, the set-up samples of each command and
    the n + 1 slowdowns.
    """
    kernels = runner.workload.host_kernels
    outcomes, setups, slowdowns = [], [], [slowdown(kernels)]
    started = time.perf_counter()
    k = 0
    while not outcomes or (time.perf_counter() - started
                           + statistics.median(o.seconds for o in outcomes)
                           + SETUP_SECONDS_PER_COMMAND
                           + SECONDS_PER_MEASUREMENT * len(kernels) <= seconds):
        raw = runner.config(k)
        setups.append([])
        time_setup(config_module, raw, setups[-1])
        o = runner.run(raw, f"k{k}")
        slowdowns.append(slowdown(kernels))
        tally.add(f"config {k}", o)
        outcomes.append(o)
        k += 1
    return outcomes, setups, slowdowns


def measure_traced(runner, seconds, tally, tracer):
    """Untraced and traced run of each config, order alternating by config."""
    traced_main = tracer.wrap("cli.main", runner.cli.main)

    def traced_run(raw, k):
        tracer.run_id = k
        with tracer.installed():
            return runner.run(raw, f"k{k}-traced", traced_main)

    pairs = []
    started = time.perf_counter()
    k = 0
    while not pairs or (time.perf_counter() - started
                        + statistics.median(a.seconds + b.seconds for a, b in pairs) <= seconds):
        raw = runner.config(k)
        if k % 2 == 0:
            plain = runner.run(raw, f"k{k}")
            traced = traced_run(raw, k)
        else:
            traced = traced_run(raw, k)
            plain = runner.run(raw, f"k{k}")
        tally.add(f"config {k}", plain, traced)
        pairs.append((plain, traced))
        k += 1
    return pairs


def _median(values):
    return statistics.median(values) if values else float("nan")


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    cli, config_module = import_program()
    env = environment(args.seed)
    work = OUT / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, args.smoke, work, cli)
    tally = Tally()
    report = []  # (name, value, unit, note)
    samples = {}
    try:
        if args.trace:
            warm_up(runner, tally, Tracer())
            tracer = Tracer()
            pairs = measure_traced(runner, args.seconds, tally, tracer)
            metrics = layer_metrics(tracer, len(pairs), workload.n_factors)
            samples = {"untraced_s": [a.seconds for a, _ in pairs],
                       "traced_s": [b.seconds for _, b in pairs]}
            overhead = statistics.median((b.seconds - a.seconds) / a.seconds for a, b in pairs)
            metrics["trace.overhead_frac"] = (overhead, "ratio")
            for name, (value, unit) in metrics.items():
                report.append((name, value, unit, f"per traced command, n={len(pairs)}"))
            _write_json(OUT / "spans" / f"{workload.name}-seed{args.seed}.json", tracer.dump())
        else:
            warm_up(runner, tally)
            outcomes, setups, slowdowns = measure_untraced(runner, args.seconds, tally,
                                                           config_module)
            samples = {"run_wall_s": [o.seconds for o in outcomes], "setup_wall_s": setups,
                       "slowdown": slowdowns}
            # a command is scaled by the slowdowns on either side of it, its
            # set-ups by the one just before them
            run_s = statistics.median(2 * o.seconds / (a + b) for o, a, b
                                      in zip(outcomes, slowdowns, slowdowns[1:]))
            setup_s = statistics.median(t / f for ts, f in zip(setups, slowdowns) for t in ts)
            setup_wall_s = statistics.median(t for ts in setups for t in ts)
            metrics = {
                "run_s": (run_s, "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            n = len(outcomes)
            n_setup = sum(map(len, setups))
            report += [("run_s", run_s, "s", f"reference-host seconds, median, n={n}"),
                       ("setup_s", setup_s, "s", f"reference-host seconds, median, n={n_setup}"),
                       ("run_wall_s", statistics.median(o.seconds for o in outcomes), "s",
                        f"median, n={n}"),
                       ("setup_wall_s", setup_wall_s, "s", f"median, n={n_setup}"),
                       ("host_slowdown", statistics.median(slowdowns), "ratio",
                        f"{'+'.join(workload.host_kernels)} kernel time / reference, "
                        f"median, n={len(slowdowns)}")]
            if workload.kind == SOLVE:
                report += [
                    ("iters_per_s", statistics.median(len(o.errs) / (o.seconds - setup_wall_s)
                                                      for o in outcomes),
                     "1/s", f"median, n={n}"),
                    ("err_final", _median([o.errs[-1] for o in outcomes if o.errs]),
                     "energy", f"median over configs, n={n}"),
                ]
            report.append(("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "n=1"))
        report.append(("fail_frac", tally.failed / tally.attempted, "ratio",
                       f"{tally.failed}/{tally.attempted} command runs"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _write_json(OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
                {"workload": workload.name, "env": env,
                 "config_sha256": runner.hashes, "problems": tally.problems, "samples": samples,
                 "report": report, "result": result})
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"config[0] sha256 {runner.hashes.get('k0', '')}")
    for p in tally.problems:
        print(f"FAILED {p}")
    for name, value, unit, note in report:
        print(f"  {name:<36} {_fmt(value):>12} {unit:<6} {note}")
    return result


def _write_json(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"perfbench {name}: exited {proc.returncode}")
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; commands start only while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="use the tiny smoke configs, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
