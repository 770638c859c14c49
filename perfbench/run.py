"""Benchmark of the toricsec verifier, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tilting --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures end-to-end metrics with no instrumentation:

* ``setup_s``: import ``toricsec`` and ``load_workspace()`` in a fresh
  interpreter; the median of several child processes.
* ``wall_s``: one pass over the workload's items, median over passes.
* ``key_item_s``: the time of the workload's key item, median over passes.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

Each item is cheap, so a run makes dozens of passes: the host's speed
drifts within a minute, and a median over many short passes is steadier
than any figure from a few long ones.

Each pass starts with cold ``lru_cache``s and a freshly loaded workspace,
as a CLI call does.  After one untimed warm-up pass, passes repeat while
another one fits in ``--seconds``; there is always at least one.

``--trace 1`` runs one untraced pass and then one traced pass (see
``tracer.py``), checks that both give identical verdicts, and reports the
per-layer metrics plus ``trace.overhead_s``, the traced pass's wall time
minus the untraced one's.

Every run also checks each verdict against its fixed expectation, and
cross-checks a seeded sample of the workload's difference classes against
the brute-force cohomology oracle (untimed).  Provenance is printed on the
line before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import (WORKLOADS, oracle_agrees, oracle_sample, run_item,
                       verdict_ok)

SETUP_REPEATS = 11
ORACLE_SAMPLE = 4

SETUP_CHILD = """\
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
t0 = perf_counter()
import toricsec
toricsec.load_workspace()
print(perf_counter() - t0)
"""


def import_toricsec(src: Path):
    """Import the package from the checkout's ``src``, nowhere else."""
    if not (src / "toricsec" / "__init__.py").is_file():
        sys.exit(f"no toricsec sources under {src}")
    sys.path.insert(0, str(src))
    import toricsec
    if Path(toricsec.__file__).resolve().parent != (src / "toricsec").resolve():
        sys.exit(f"toricsec imported from {toricsec.__file__}, not {src}")
    return toricsec


def measure_setup(src: Path) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(src)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("toricsec.") and module is not None:
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(toricsec, workload, seed: int):
    """One cold pass: returns (wall seconds, {item: seconds}, {item: verdict})."""
    clear_caches()
    ws = toricsec.load_workspace()
    times, verdicts = {}, {}
    start = perf_counter()
    for item in workload.items:
        t0 = perf_counter()
        try:
            verdicts[item] = run_item(toricsec, ws, item, seed)
        except Exception:   # an item that raises counts as failed
            traceback.print_exc()
            verdicts[item] = ("error",)
        times[item] = perf_counter() - t0
    return perf_counter() - start, times, verdicts


def failures(verdicts) -> list:
    bad = [item for item, v in verdicts.items() if not verdict_ok(item, v)]
    for item in bad:
        print(f"wrong verdict {item.name}: {verdicts[item]!r}", flush=True)
    return bad


def oracle_check(toricsec, ws, label, cls) -> bool:
    try:
        agrees = oracle_agrees(toricsec, ws, label, cls)
    except toricsec.cohomology.BoxTooSmall as exc:
        print(f"oracle gave no answer on {label} class {cls}: {exc}", flush=True)
        return False
    if not agrees:
        print(f"oracle disagrees on {label} class {cls}", flush=True)
    return agrees


def layer_values(tracer: Tracer) -> dict:
    """Every stat of every target, by metric name."""
    out = {}
    for key, stat in tracer.stats.items():
        out[f"{key}.calls"] = stat.calls
        out[f"{key}.self_s"] = stat.self_s
        out[f"{key}.total_s"] = stat.total_s
        for name, n in stat.counts.items():
            out[f"{key}.{name}"] = n
    sf = tracer.stats["polyhedra.simplex_feasible"]
    out["polyhedra.simplex_feasible.ok_ratio"] = (
        sf.counts["ok"] / sf.calls if sf.calls else 0.0)
    return out


def select(specs, values: dict) -> dict:
    """The metrics named in BENCHMARK.json, in its order and units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def git_provenance(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"git_commit": None, "git_dirty": None}
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"git_commit": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    toricsec = import_toricsec(src)
    workload = WORKLOADS[args.workload]

    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.trace:
        wall_u, _, verdicts = run_pass(toricsec, workload, args.seed)
        with Tracer() as tracer:
            wall_t, _, traced = run_pass(toricsec, workload, args.seed)
        differ = {i for i in workload.items if traced[i] != verdicts[i]}
        for item in differ:
            print(f"traced verdict differs {item.name}: {traced[item]!r}", flush=True)
        bad = set(failures(verdicts)) | set(failures(traced)) | differ
        values = layer_values(tracer)
        values["trace.overhead_s"] = wall_t - wall_u
        metrics = select(spec["per_layer"], values)
    else:
        setup_s = measure_setup(src)
        # An untimed first pass takes the process's one-time costs.
        bad = set(failures(run_pass(toricsec, workload, args.seed)[2]))
        walls, item_times = [], []
        deadline = perf_counter() + args.seconds
        while True:
            t0 = perf_counter()
            wall, times, verdicts = run_pass(toricsec, workload, args.seed)
            walls.append(wall)
            item_times.append(times[workload.key])
            bad |= set(failures(verdicts))
            pass_s = perf_counter() - t0
            if perf_counter() + pass_s > deadline:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"passes {len(walls)} wall_s min {min(walls)} "
              f"median {statistics.median(walls)} max {max(walls)}", flush=True)
        metrics = select(spec["end_to_end"], {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "key_item_s": statistics.median(item_times),
            "peak_rss_mb": peak_kb / 1024,
        })

    ws = toricsec.load_workspace()
    sample = oracle_sample(ws, workload, args.seed, ORACLE_SAMPLE)
    disagree = [(label, cls) for label, cls in sample
                if not oracle_check(toricsec, ws, label, cls)]

    provenance = {"workload": workload.name, "seed": args.seed,
                  "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
                  "python": platform.python_version(),
                  "oracle_checked": len(sample), **git_provenance(root)}
    print("provenance " + json.dumps(provenance), flush=True)
    result = {"correct": not bad and not disagree,
              "attempted": len(workload.items), "failed": len(bad),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
