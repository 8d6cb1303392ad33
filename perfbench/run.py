"""Benchmark of the volterra-deviations toolkit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each pass of a workload runs in a fresh
worker process (``worker.py``), so set-up time and peak RSS belong to that
pass alone; passes repeat while another one, and the set-up-only workers
still owed, fit in ``--seconds``.  Every pass of a run uses the same seed,
and their result digests must agree bit for bit, traced or not.  Thread
settings are pinned for the workers: one BLAS thread and one simulator
thread, so a worker never contends with itself for the CPUs.

With ``--trace 0`` only untraced passes run, and the last line carries the
end-to-end metrics as medians over them.  Times on the JSON line are at
reference speed: each worker samples the host's speed while it sets up and
while a plain pass runs (``worker.SpeedProbe``), because that speed drifts
by more than the bounds; the measured times are printed too.

With ``--trace 1`` the run adds a traced pass (and, on workloads that solve,
a pass that times each terminal solve), prints every end-to-end metric
including the solve latencies, and the last line carries the per-layer
metrics of the traced pass; ``trace.overhead_s`` is its measured wall time
minus the untraced one.  The exit code is 0 only when every result check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# end-to-end metrics on the JSON line: every workload defines them and none is 0
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
MIN_SETUPS = 3  # set-up is measured this many times per run, at least
DEADLINE_S = 170.0  # the whole run ends within 180 s


def _worker(workload: str, seed: int, kind: str, env: dict, t0: float) -> dict:
    spawned = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--kind", kind,
        "--spawned-at", repr(spawned),
    ]
    budget = DEADLINE_S - (spawned - t0)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{kind} pass of {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["span_s"] = time.monotonic() - spawned
    return out


def _solve_latency(solve_s: list[float]) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile): the tail is the highest order
    statistic with 10 samples beyond it."""
    lat = sorted(1e3 * s for s in solve_s)
    n = len(lat)
    tail = lat[n - 11] if n >= 11 else float("nan")
    return statistics.median(lat), tail, 100.0 * (n - 10) / n


def _run_passes(wl, seed: int, seconds: int, kinds: tuple, env: dict):
    """Worker passes: first one of each of ``kinds``, then plain passes while
    another one and the set-up-only workers still owed end within
    ``seconds``; then set-up-only workers until set-up was measured
    MIN_SETUPS times."""
    t0 = time.monotonic()
    passes: list[dict] = []
    while True:
        kind = kinds[len(passes)] if len(passes) < len(kinds) else "plain"
        passes.append(_worker(wl.name, seed, kind, env, t0))
        if len(passes) < len(kinds):
            continue
        owed = max(0, MIN_SETUPS - len(passes) - 1)
        per_setup = statistics.median(p["measured_setup_s"] for p in passes) + 0.1
        pass_s = statistics.median(p["span_s"] for p in passes if p["kind"] == "plain")
        ends = time.monotonic() - t0 + pass_s + owed * per_setup
        if ends > seconds or ends > DEADLINE_S - 10:
            break
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(_worker(wl.name, seed, "setup", env, t0))
    return passes, setups


def _checks(wl, passes: list[dict]) -> list[tuple]:
    checks = []
    for i, p in enumerate(passes, 1):
        checks += [(f"pass {i}: {name}", ok, detail) for name, ok, detail in p["checks"]]
    digests = sorted({str(p.get("digest")) for p in passes})
    checks.append(("results bit-identical across passes", len(digests) == 1, str(digests)))
    traced = [p for p in passes if p["kind"] == "traced"]
    for p in traced:
        lay = p["layers"]
        total = p["self_sum_s"] + lay["trace.unattributed_s"]
        checks.append((
            "layer self times + unattributed == traced wall",
            abs(total - lay["trace.wall_s"]) <= 1e-9 * lay["trace.wall_s"],
            f"{total:.9f} vs {lay['trace.wall_s']:.9f} s",
        ))
        silent = [la for la in wl.layers if lay[f"{la}.calls"] == 0]
        checks.append(("every layer of the workload fired", not silent, f"silent: {silent}"))
    for key in ("rate_functions.lbfgs_iters", "volterra_det.picard_iters"):
        seen = sorted({p["layers"][key] for p in traced})
        if len(seen) > 1:
            checks.append((f"{key} repeats exactly across traced passes", False, str(seen)))
    return checks


def _end_to_end(passes: list[dict], setups: list[dict]) -> dict[str, tuple[float, str]]:
    plain = [p for p in passes if p["kind"] == "plain"]
    wall_s = statistics.median(p["wall_s"] for p in plain)
    e2e = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        "fail_frac": (
            sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes), "ratio"
        ),
    }
    for key, workers, probe in (("wall", plain, "probe_ms"), ("setup", setups, "setup_probe_ms")):
        measured = statistics.median(p[f"measured_{key}_s"] for p in workers)
        loop_ms = statistics.median(p[probe] for p in workers)
        print(f"measured {key}_s = {measured:.6g} s, probe loop {loop_ms:.4g} ms (medians)")
    if "path_steps" in plain[0]:
        e2e["path_steps_per_s"] = (plain[0]["path_steps"] / wall_s, "1/s")
        e2e["time_to_accuracy_s"] = (wall_s * plain[0]["accuracy"] ** 2, "s")
    timed = [p["solve_s"] for p in passes if p["kind"] == "timed"]
    if timed:
        lat = [_solve_latency(s) for s in timed]
        e2e["solve_ms_p50"] = (statistics.median(t[0] for t in lat), "ms")
        e2e["solve_ms_tail"] = (statistics.median(t[1] for t in lat), "ms")
        print(f"solve latency over {len(timed[0])} terminal solves per pass; "
              f"tail = p{lat[0][2]:.1f} (10 solves beyond it)")
    return e2e


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("src", "volterra_deviations", "__init__.py")):
        print("run from the root of a volterra-deviations checkout (no src/volterra_deviations)",
              file=sys.stderr)
        return 2
    # a terminated run still kills and waits for its worker (subprocess.run does on any exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wl = WORKLOADS[args.workload]
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        VD_THREADS="1",
    )
    if not args.trace:
        kinds = ("plain",)
    elif "rate_functions" in wl.layers:  # solve latencies: a pass wrapping only rate_functions
        kinds = ("plain", "timed", "traced")
    else:
        kinds = ("plain", "traced")
    try:
        passes, setups = _run_passes(wl, args.seed, args.seconds, kinds, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(passes[0]["env"], sort_keys=True))
    for i, p in enumerate(passes, 1):
        print(f"pass {i} {p['kind']}: wall {p['measured_wall_s']:.3f} s measured"
              + (f" / {p['wall_s']:.3f} s at reference speed" if "wall_s" in p else "")
              + f", setup {p['measured_setup_s']:.3f} s / {p['setup_s']:.3f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MB, digest {p.get('digest')}")
        if p.get("missing_sites"):
            print(f"pass {i}: call sites not found, not traced: {p['missing_sites']}")
    checks = _checks(wl, passes)
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}: {detail}")
    correct = all(ok for _, ok, _ in checks)
    e2e = _end_to_end(passes, setups)
    for name, (value, unit) in e2e.items():
        print(f"metric {name} = {value:.6g} {unit}")

    if args.trace:
        traced = [p for p in passes if p["kind"] == "traced"]
        layers = dict(traced[0]["layers"])
        layers["trace.overhead_s"] = statistics.median(
            p["measured_wall_s"] for p in traced
        ) - statistics.median(p["measured_wall_s"] for p in passes if p["kind"] == "plain")
        for name, (unit, _) in METRICS.items():
            print(f"layer {name} = {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, _) in METRICS.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
