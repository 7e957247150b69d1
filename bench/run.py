"""The record/replay benchmark: one command, every metric by name.

    python3 bench/run.py                        all workloads, end to end
    python3 bench/run.py --traced               ... and the per-layer run
    python3 bench/run.py --workload mcb32 --seed 7 --seconds 22 --trace 0

With ``--workload`` the run happens in this process (a fresh one per
workload); without it each workload gets a child process. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``. Metrics, phases and layers are defined in
``bench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")
#: set-ups per end-to-end run (this process plus setup-only children);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--traced", action="store_true",
        help="same as --trace 1; without --workload, run both",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="16 ranks, one repetition: checks the harness, measures nothing",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.names = names
    args.declared = declared
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(declared["run_seconds"])
    return args


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1min": load1,
        # other work on the machine at the start: read the timings with care
        "noisy": load1 > nproc,
    }


def set_up(workload, seed: int, smoke: bool, tmp: str):
    """Everything before the first timed phase: imports, program build,
    warm-up, and the second record that ``diff`` compares against."""
    from bench import phases
    from bench.workloads import make_inputs

    inputs = make_inputs(workload, seed, smoke=smoke)
    phases.warm_up(workload, seed, tmp)
    phases.record(inputs, inputs.seeds["record_b"], os.path.join(tmp, "b"))
    return inputs, time.perf_counter() - _T0


def child(args, *extra) -> dict:
    """Run this script again and return the JSON on its last line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        cmd + list(extra), stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if done.returncode != 0 and not lines:
        raise SystemExit(f"{' '.join(cmd + list(extra))}: exit {done.returncode}")
    return json.loads(lines[-1])


def print_table(title: str, rows) -> None:
    print(f"-- {title}")
    for name, value, unit, note in rows:
        print(f"{name:<30} {value:>16.6f} {unit:<9} {note}")


def run_workload(args) -> int:
    from bench import phases
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tmp = os.path.join(OUT, f"tmp-{workload.name}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        env = environment()
        inputs, setup_s = set_up(workload, args.seed, args.smoke, tmp)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        checks = phases.Checks()
        detail = {}
        if args.trace:
            from bench import probes
            from bench.trace import Tracer

            tracer = Tracer(workload.name)
            samples, values = probes.run_layers(
                workload, inputs, tmp, args.seconds, checks, tracer, smoke=args.smoke
            )
            tracer.write(os.path.join(OUT, f"trace-{workload.name}.json"))
            detail["span_self_s"] = tracer.self_seconds()
        else:
            samples, values = phases.run_end_to_end(
                workload, inputs, tmp, args.seconds, checks, smoke=args.smoke
            )
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            setups = [setup_s] + [
                child(args, "--workload", workload.name, "--setup-only")["setup_s"]
                for _ in range(1 if args.smoke else SETUP_REPEATS - 1)
            ]
            values["setup_s"] = statistics.median(setups)
            detail["setup_samples_s"] = setups
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # BENCHMARK.json names what is emitted: a declared metric the run did not
    # compute is a KeyError, a computed value it does not declare is a count.
    emitted = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in args.declared["per_layer" if args.trace else "end_to_end"]
    }
    summary = samples.summary()
    kind = "layers" if args.trace else "e2e"
    print(f"== {workload.name} seed={args.seed} {kind} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"load={env['loadavg_1min']:.2f}{' NOISY' if env['noisy'] else ''}")
    print_table(
        "metrics", [(n, m["value"], m["unit"], "") for n, m in emitted.items()]
    )
    print_table(
        "timed calls (best; median, quartiles, samples)",
        [
            (n, s["best"], "s",
             f"median={s['median']:.4f} q1={s['q1']:.4f} q3={s['q3']:.4f} n={s['n']}")
            for n, s in summary.items()
        ],
    )
    failed = len(checks.failures)
    print(f"checks: {checks.attempted} attempted, {failed} failed, "
          f"failed_share={failed / checks.attempted:.4f}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": emitted,
    }
    with open(
        os.path.join(OUT, f"result-{workload.name}-{kind}.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(
            dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                 smoke=args.smoke, environment=env, timed_calls=summary,
                 counts={k: v for k, v in values.items() if k not in emitted},
                 failures=checks.failures, **detail),
            fh, indent=1,
        )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    results = {}
    for name in args.names:
        for trace in (0, 1) if args.traced else (0,):
            results[f"{name}/{'layers' if trace else 'e2e'}"] = child(
                args, "--workload", name, "--trace", str(trace)
            )
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: r["metrics"] for key, r in results.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("bench/run.py: no src/repro beside bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    # this script's directory leaves the path: bench/trace.py must not
    # shadow the standard library's trace module.
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        p for p in sys.path if os.path.abspath(p or ".") != os.path.join(ROOT, "bench")
    ]
    os.makedirs(OUT, exist_ok=True)
    if args.workload is None:
        return run_all(args)
    if args.traced:
        args.trace = 1
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
