"""One benchmark pass of one workload, in a fresh process.

Started by ``run.py`` from the root of a checkout, which has already pinned
the thread settings in the environment.  Prints one JSON object: set-up time
(measured from the parent's spawn), the pass's wall time, peak RSS, result
checks, a digest of the numeric results, and for traced kinds the per-layer
metrics.  Set-up and plain passes also report their time at reference speed
(see ``SpeedProbe``).

Kinds: ``plain`` installs no wrapper; ``timed`` wraps only the rate_functions
call sites, for per-solve latencies; ``traced`` wraps every layer;
``setup`` stops after the inputs are built.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

# The host's speed for interpreted code swings by 30 % and more over minutes,
# because other tenants share its cores, and the toolkit's time swings with
# it (a 15 s pass of ldp_rate_solves took 21-24 s for minutes at a time).
# Timing a fixed pure-Python loop at short intervals while a phase runs
# measures that speed at the same moments; the phase's time at reference
# speed is its own time x REF_PROBE_S / mean loop time.  In two sets of ten
# runs per workload on a 2-vCPU sandbox, this cut the run-to-run spread
# (IQR / median) of the pass time from 5-20 % to 3-9 %, and the shift of the
# heston_smile_mc median between the sets from 32 % to 13 %.  A loop that
# streams a 16 MB array tracked the slowdowns far worse, on every workload.
PROBE_LOOP = 15_000
PROBE_EVERY_S = 0.05
REF_PROBE_S = 1e-3  # about the loop's time on an idle 2.1 GHz Xeon vCPU


class SpeedProbe:
    """While active, times PROBE_LOOP iterations of a fixed pure-Python loop
    every PROBE_EVERY_S of wall time (on SIGALRM, so between bytecodes of the
    main thread), and once more on exit."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def at_reference(self, measured_s: float) -> tuple[float, float, float]:
        """(phase time without the probe's own, same at reference speed,
        mean loop time in ms) for a phase that took ``measured_s``."""
        own = measured_s - sum(self.samples)
        loop_s = statistics.fmean(self.samples)
        return own, own * REF_PROBE_S / loop_s, 1e3 * loop_s


def _environment() -> dict:
    import ctypes
    import glob
    import subprocess

    import numpy as np
    import scipy

    blas = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    blas[f"{pkg.__name__}_openblas_threads"] = fn()
                    break
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if os.path.isdir(".git"):  # the benchmark may run in an export without history
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "volterra_deviations", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    blas_cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas_cfg.get('name')} {blas_cfg.get('version')}",
        "VD_THREADS": os.environ.get("VD_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        **blas,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--kind", choices=("plain", "timed", "traced", "setup"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    with SpeedProbe() as probe:
        import volterra_deviations

        if not os.path.abspath(volterra_deviations.__file__).startswith(src + os.sep):
            sys.exit(f"volterra_deviations imported from {volterra_deviations.__file__}, not {src}")
        import spans
        from workloads import WORKLOADS, Failed

        wl = WORKLOADS[args.workload]
        inputs = wl.setup(args.seed)
    out = {"kind": args.kind}
    out["measured_setup_s"], out["setup_s"], out["setup_probe_ms"] = probe.at_reference(
        time.monotonic() - args.spawned_at
    )
    if args.kind == "setup":
        print(json.dumps(out))
        return

    rec = restore = None
    if args.kind != "plain":
        rec = spans.Recorder()
        layers = spans.LAYERS if args.kind == "traced" else ("rate_functions",)
        restore, out["missing_sites"] = spans.install(rec, layers)
    probe = SpeedProbe() if args.kind == "plain" else contextlib.nullcontext()
    start = time.perf_counter()
    with probe:
        try:
            res, error = wl.run(inputs), None
        except Failed as exc:
            res, error = None, str(exc)
    wall_s = time.perf_counter() - start
    if restore is not None:
        spans.uninstall(restore)

    if args.kind == "plain":
        out["measured_wall_s"], out["wall_s"], out["probe_ms"] = probe.at_reference(wall_s)
    else:
        out["measured_wall_s"] = wall_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["attempted"] = wl.ops
    if res is None:
        out["failed"] = wl.ops
        out["checks"] = [["operations complete", False, error]]
    else:
        import numpy as np

        out["failed"] = res["failed"]
        out["checks"] = [[name, bool(ok), detail] for name, ok, detail in wl.check(res)]
        numbers = np.asarray(res["numbers"], dtype=np.float64)
        out["digest"] = hashlib.sha256(numbers.tobytes()).hexdigest()[:16]
        for key in ("path_steps", "accuracy"):
            if key in res:
                out[key] = res[key]
    if rec is not None:
        out["solve_s"] = rec.durations("ldp_rate_terminal")
        out["site_calls"] = dict(rec.site_calls)
        if args.kind == "traced":
            out["layers"] = rec.layer_metrics(wall_s)
            out["self_sum_s"] = sum(out["layers"][f"{la}.self_s"] for la in spans.LAYERS)
    out["env"] = _environment()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
