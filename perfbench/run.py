"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the traced run and reports
the per-layer metrics.  ``--workload all`` runs every workload in turn.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed output
check makes the command exit with status 1.

The command works from three kinds of child process, so that each
figure is taken where nothing else disturbs it:

* set-up probes: fresh interpreters that import the program, load the
  compiled core from its (warm) cache and build the workload's systems;
  ``setup_s`` is the median of several;
* the measuring process: the timed window, then the output checks;
* the traced process (``--trace 1``), see :mod:`traced`.

Every file the benchmark writes stays under ``.bench_build/`` in the
checkout, including the compiled core's cache and the C compiler's
temporary files.
"""

import time

_STARTED = time.perf_counter()  # the set-up probe's clock starts here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("explore", "fuzz-coverage", "fuzz-shrink", "load")
SETUP_PROBES = 7
#: Every child must be gone well before the 180 s the command may take.
DEADLINE_S = 170.0

#: ``throughput`` under each workload's own name and unit.
NAMED = {
    "explore": ("explore.states_per_s", "states/s"),
    "fuzz-coverage": ("fuzz.runs_per_s", "runs/s"),
    "fuzz-shrink": ("fuzz.runs_per_s", "runs/s"),
    "load": ("load.sessions_per_s", "sessions/s"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "measure",
                                           "trace"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.role != "main":
        sys.path.insert(0, SRC)
        return {"probe": role_probe, "measure": role_measure,
                "trace": role_trace}[args.role](args)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return drive(args)


# ----------------------------------------------------------------------
# parent process (standard library only)
# ----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_ACCEL_CACHE"] = os.path.join(OUT, "accel-cache")
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    env.pop("REPRO_ACCEL_REQUIRE", None)
    return env


def run_child(role: str, args, deadline: float) -> dict:
    """Run this script in ``role``; its last stdout line, parsed.

    The child leads its own process group, so a timeout kills it and
    any pool workers it forked; every process is waited for.
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--role", role, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{role} process exceeded the time limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} process printed nothing")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def source_commit() -> str:
    """The checkout's commit, or a digest of its source tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as handle:
                    return handle.read().strip()
        else:
            return ref
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_record(args, accel_backend) -> dict:
    record = {
        "effective_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "accel_backend": accel_backend,
        "commit": source_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.workload == "fuzz-shrink" and record["effective_cpus"] < 2:
        record["oversubscribed"] = (
            f"effective_cpus={record['effective_cpus']} is below the "
            "2 pool workers of fuzz-shrink")
    return record


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def drive(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    try:
        # Untimed: fills the compiled-core and bytecode caches, so the
        # probes below measure set-up from a warm cache.
        run_child("probe", args, deadline)
        if args.trace:
            child = run_child("trace", args, deadline)
        else:
            setups = [run_child("probe", args, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            child = run_child("measure", args, deadline)
            child["metrics"]["setup_s"] = statistics.median(setups)
            child["setup_samples_s"] = setups
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    host = host_record(args, child.pop("accel_backend"))
    metrics = {name: {"value": child["metrics"][name], "unit": unit}
               for name, unit in declared_metrics(args.trace).items()}
    errors = child.pop("errors")
    correct = not errors
    print("host: " + json.dumps(host, sort_keys=True))
    if "oversubscribed" in host:
        print("warning: oversubscribed: " + host["oversubscribed"])
    if not args.trace:
        print_end_to_end(args.workload, child, metrics)
    else:
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for error in errors:
        print("CHECK FAILED: " + error)
    print("checks: " + ("all passed" if correct else
                        f"{len(errors)} failed"))
    result = {"correct": correct, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({**result, "host": host, "errors": errors,
                   "details": child}, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


def print_end_to_end(workload: str, child: dict, metrics: dict) -> None:
    details = child["details"]
    print(f"workload {workload}: {details['rounds']} rounds, "
          f"{child['attempted']} attempted, {child['failed']} failed; "
          f"item: {details['unit'][:-1]}; request: {details['request']}")
    named = {name: (metric["value"], metric["unit"])
             for name, metric in metrics.items()}
    named[NAMED[workload][0]] = (metrics["throughput"]["value"],
                                 NAMED[workload][1])
    if workload == "fuzz-shrink":
        named["fuzz.shrunk_violations_per_s"] = (
            details["shrunk_violations_per_s"], "violations/s")
    prefix = "load.session" if workload == "load" else "request"
    if workload == "load":
        named["load.session_p50_ms"] = (
            metrics["request_p50_ms"]["value"], "ms")
    tail = details["tail"]
    if tail:
        named[f"{prefix}_p{tail['q']:g}_ms"] = (
            tail["ms"], f"ms ({details['requests']} samples)")
    named["failed_ratio"] = (child["failed"] / child["attempted"],
                             "failed/attempted")
    for name, (value, unit) in named.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    if not tail:
        print(f"  no request percentile above p50: {details['requests']} "
              "samples leave fewer than ten beyond p90")
    print("  setup samples (s): " + ", ".join(
        f"{value:.4f}" for value in child["setup_samples_s"]))


def run_all(args) -> int:
    """Every workload in turn, each as its own command."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        code = subprocess.call(command, cwd=ROOT)
        status = status or code
    print("all workloads: " + ("correct" if status == 0 else "FAILED"))
    return status


# ----------------------------------------------------------------------
# child roles (import the program)
# ----------------------------------------------------------------------


def role_probe(args) -> int:
    import workloads
    from repro.ioa.engine.accel import accel_backend_id

    workload = workloads.make(args.workload, args.seed)
    accel_backend_id()  # loads the compiled core (built if cold)
    workload.setup()
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
    return 0


def role_measure(args) -> int:
    import workloads
    from repro.ioa.engine.accel import accel_backend_id

    workload = workloads.make(args.workload, args.seed)
    backend = accel_backend_id()
    workload.setup()
    total, rounds = workloads.run_window(workload, args.seconds)
    workload.finish()

    latencies = total.latencies_s
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb = self_rss
    if workload.pool_workers > 1:
        # The largest pool child: pool workers are the only children.
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    q = workloads.tail_percentile(len(latencies))
    details = {
        "rounds": rounds,
        "unit": workload.unit,
        "request": workload.request,
        "requests": len(latencies),
        "wall_s": total.wall_s,
        "units": total.units,
        "shrunk_violations_per_s": total.shrunk_violations / total.wall_s,
        "tail": {"q": q, "ms": 1000 * workloads.percentile(latencies, q)}
        if q else None,
        "peak_rss_self_mb": self_rss / 1024,
    }
    print(json.dumps({
        "accel_backend": backend,
        "attempted": total.attempted,
        "failed": total.failed,
        "errors": workload.errors,
        "metrics": {
            "throughput": total.units / total.wall_s,
            "request_p50_ms": 1000 * statistics.median(latencies),
            "peak_rss_mb": rss_kb / 1024,
        },
        "details": details,
    }))
    return 0


def role_trace(args) -> int:
    import traced
    import workloads
    from repro.ioa.engine.accel import accel_backend_id

    workload = workloads.make(args.workload, args.seed)
    backend = accel_backend_id()
    workload.setup()
    trace_path = os.path.join(
        OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    result, lines = traced.traced_run(
        workload, args.seconds, os.path.join(OUT, "tmp"), trace_path,
        list(declared_metrics(1)))
    for line in lines:
        print(line)
    print(json.dumps({
        "accel_backend": backend,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": workload.errors,
        "metrics": result["metrics"],
        "rounds": result["rounds"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
