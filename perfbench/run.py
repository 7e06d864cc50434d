"""helmlab benchmark: time the workloads end to end, or trace them per layer.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; helmlab is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it runs each item untraced and then traced and reports the
per-layer metrics, and writes the spans to
`.perfbench_out/spans-<workload>.jsonl.gz`.  Every item's output is
checked; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Item times are each item's fastest
run, scaled by a speed probe run between items, so that the host's load
and drifting speed move them as little as the run can manage (see
`SpeedProbe`).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
# helmlab's kernels (tridiagonal and banded LAPACK, elementwise numpy) are
# single-threaded; an idle OpenBLAS pool only spins on the second core of a
# small shared machine and adds noise without changing wall time.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
SUBPROCESS_TIMEOUT_S = 150
# the speed probe: PROBE_REPEATS banded solves of size PROBE_SIZE, at most
# every PROBE_GAP_S seconds (about 1% of a run); PROBE_REFERENCE_S is near
# its lower quartile on the 2-core Xeon host that perfbench/README.md describes
PROBE_SIZE = 20_000
PROBE_REPEATS = 8
PROBE_GAP_S = 0.25
PROBE_REFERENCE_S = 4.5e-3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "quasiopt", "reference"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True).stdout.strip()


def provenance(seed: int) -> dict:
    """Machine, toolchain and source identity of this run."""
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for mod in (numpy, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = {k: dep.get(k) for k in
                              ("name", "version", "openblas configuration")}
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": commit, "git_dirty": dirty}


def setup_samples(workload: str, seed: int, smoke: bool, n: int) -> list:
    """Set-up seconds from `n` fresh interpreters, one after another."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(n):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run_item(item, tracer=None):
    """Run and check one item: (seconds, problems found).

    An exception in the run or the check is a problem.  The time of a
    failed run is kept: it was spent all the same.
    """
    ctx = tracer.item(item.id) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx:
            out = item.run()
    except Exception:  # a failed item is counted, the run goes on
        return time.perf_counter() - t0, [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, item.check(out)
    except Exception:
        return elapsed, [traceback.format_exc(limit=3)]


class SpeedProbe:
    """A fixed piece of work, independent of helmlab, timed between items.

    Load from other jobs on the shared host comes in two kinds.  Bursts
    come and go within seconds and only ever add time, so an item's fastest
    run escapes them.  Beneath them the host's speed drifts by a fifth and
    more over minutes, which moves every run of a benchmark run alike, so
    that runs of the same code minutes apart disagree by more than any
    bound on a regression.  The probe measures that drift: its lower
    quartile over the run, the probe's time at the quieter moments just as
    a fastest run is the item's, gives `scale` against `PROBE_REFERENCE_S`,
    and every reported time, set-up and items, is multiplied by it.  A
    scaled time is the seconds the work would have taken at the speed at
    which the probe takes `PROBE_REFERENCE_S`; a change to helmlab moves it
    as much as it moves the measured time, since the probe calls no helmlab
    code.  The probe is a banded LAPACK solve, the kernel that dominates
    the fem layer.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded
        n = PROBE_SIZE
        bands = np.vstack([np.ones(n), np.full(n, 4.0), np.ones(n)])
        self._solve = functools.partial(solve_banded, (1, 1), bands, np.ones(n))
        self._solve()  # LAPACK's first call is not timed
        self.last = -math.inf  # perf_counter() when the last tick began
        self.seconds = []

    def tick(self) -> None:
        self.last = t0 = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            self._solve()
        self.seconds.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Reference seconds per measured second over the run."""
        return PROBE_REFERENCE_S / statistics.quantiles(self.seconds, n=4)[0]


def run_passes(items, seconds: float, tracer=None):
    """Measure for `seconds`: ({item id: untraced seconds per run},
    {item id: traced seconds per run}, runs attempted, failures, probe).

    The items run in pass order round and round until the next one would
    end after `seconds`, at least one full pass, so a run whose passes are
    long still measures for its whole length.  With a tracer, each item
    runs once untraced and then once traced, so the two runs of a pair see
    the same machine load.  The probe ticks before an item once
    `PROBE_GAP_S` have passed since its last tick, and once at the end.
    """
    untraced = {item.id: [] for item in items}
    traced = {item.id: [] for item in items}
    failures = []
    probe = SpeedProbe()
    clock = time.perf_counter
    start = clock()
    n, k = len(items), 0
    while True:
        item = items[k % n]
        cost = sum(untraced[item.id][-1:] + traced[item.id][-1:])
        if k >= n and clock() - start + cost > seconds:
            break
        if clock() - probe.last >= PROBE_GAP_S:
            probe.tick()
        t, problems = run_item(item)
        untraced[item.id].append(t)
        failures.extend((item.id, p) for p in problems[:1])
        if tracer is not None:
            with tracer.installed():
                t, problems = run_item(item, tracer)
            traced[item.id].append(t)
            failures.extend((item.id, p) for p in problems[:1])
        k += 1
    probe.tick()
    return untraced, traced, k if tracer is None else 2 * k, failures, probe


def item_cost(times) -> float:
    """Cost of one item: its fastest run, the one least slowed by bursts of
    load from other jobs (see `SpeedProbe`)."""
    return min(times)


def pass_seconds(item_times, scale: float) -> float:
    """Cost of one pass: the sum of the item costs, scaled."""
    return scale * sum(item_cost(t) for t in item_times.values())


def end_to_end_metrics(setup, item_times, scale: float) -> dict:
    """End-to-end figures: `setup_s` is the median set-up, `wall_s` the cost
    of one pass and `item_ms` the percentiles over the item costs, all
    scaled, from the untraced item runs."""
    import numpy as np
    per_item = scale * np.array([item_cost(t) for t in item_times.values()])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": scale * statistics.median(setup),
            "wall_s": pass_seconds(item_times, scale),
            "item_ms.p50": 1e3 * float(np.percentile(per_item, 50)),
            "item_ms.p90": 1e3 * float(np.percentile(per_item, 90)),
            "peak_rss_mb": peak_kib / 1024.0}


def _metric_line(name, value, unit, note=""):
    return f"metric {name} = {value:.6g} {unit}{note}"


def main(argv=None, smoke: bool = False, out_dir: Path = None) -> int:
    """Run one workload; `smoke` shrinks every workload to a few seconds."""
    args = _parse(argv)
    if not (ROOT / "src" / "helmlab" / "__init__.py").is_file():
        print(f"perfbench: no helmlab sources under {ROOT / 'src'}; run it "
              f"from the root of a helmlab checkout", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # set-ups before and after the measured loop, so that they see the
    # host's speed at both ends of the run rather than during a few seconds
    n_setup = 1 if smoke else SETUP_SAMPLES
    setup = setup_samples(args.workload, args.seed, smoke, (n_setup + 1) // 2)
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=smoke)
    workload.warmup()
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, attempted, failures, probe = run_passes(
        workload.items, args.seconds, tracer)
    setup += setup_samples(args.workload, args.seed, smoke, n_setup // 2)

    runs = sum(len(t) for t in untraced.values())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} items/pass={len(workload.items)} "
          f"untraced_runs={runs} traced_runs={sum(len(t) for t in traced.values())}")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    scale = probe.scale()
    ticks = statistics.quantiles(probe.seconds, n=4)  # a run ticks twice or more
    print(f"speed probe: {len(probe.seconds)} ticks, median {1e3 * ticks[1]:.4g} ms "
          f"(quartiles {1e3 * ticks[0]:.4g} to {1e3 * ticks[2]:.4g} ms), reference "
          f"{1e3 * PROBE_REFERENCE_S:.4g} ms: item times below are scaled by "
          f"{scale:.4g}; unscaled wall_s = {pass_seconds(untraced, 1.0):.6g} s")
    for item_id, problem in failures[:10]:
        print(f"FAILED {item_id}: {problem}", file=sys.stderr)

    e2e = end_to_end_metrics(setup, untraced, scale)
    per_item = f" (fastest run per item, scaled; {len(untraced)} items, {runs} runs)"
    notes = {"setup_s": f" (median of {len(setup)} set-ups, scaled)",
             "wall_s": per_item, "item_ms.p50": per_item, "item_ms.p90": per_item}
    for name, value in e2e.items():
        print(_metric_line(name, value, units[name], notes.get(name, "")))
    # carried by the JSON `failed` and `attempted` counts rather than as a
    # metric: it reads 0 on a correct run, and an end-to-end metric may not
    print(f"metric failed_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed / {attempted} attempted)")

    if tracer is None:
        metrics = {name: e2e[name] for name in units if name in e2e}
    else:
        metrics = tracer.layer_metrics()
        traced_wall = pass_seconds(traced, scale)
        metrics["trace.overhead_ratio"] = traced_wall / e2e["wall_s"]
        print(f"traced wall_s = {traced_wall:.6g} s (fastest run per item, scaled)")
        for name, value in metrics.items():
            print(_metric_line(name, value, units[name]))
        out_dir = ROOT / ".perfbench_out" if out_dir is None else out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        # one file per workload, so repeated runs do not fill the disk
        tracer.write(out_dir / f"spans-{args.workload}.jsonl.gz",
                     {"workload": args.workload, "seed": args.seed})
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
