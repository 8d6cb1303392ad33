"""Per-layer spans around calls into the toolkit's modules.

The spans live in the benchmark, not in the program: ``install`` replaces a
module attribute with a timing wrapper, at the module where the *caller*
looks the name up (``mc_smile`` calls ``implied_vol.simulate``, so patching
``sve_sim.simulate`` would miss it).  Modules are reached with
``importlib.import_module`` because the package re-exports some functions
under their module's name (``volterra_deviations.implied_vol`` is a function).

Spans are timed on the thread that created the recorder.  Calls made from
the simulator's worker threads are counted but not timed: their time stays
inside the enclosing ``sve_sim`` span.  A layer's self time is its span
durations minus the spans nested directly inside them, so the self times of
all layers plus the time no span covers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import math
import threading
import time
from collections import Counter, defaultdict

LAYERS = (
    "kernels",
    "frac_calculus",
    "volterra_det",
    "sve_sim",
    "rate_functions",
    "implied_vol",
    "mc_verify",
)

# (module the caller resolves the name in, attribute, layer)
CALL_SITES = (
    ("implied_vol", "mc_smile", "implied_vol"),
    ("implied_vol", "smile_ldp", "implied_vol"),
    ("implied_vol", "implied_vol", "implied_vol"),
    ("implied_vol", "simulate", "sve_sim"),
    ("implied_vol", "ldp_rate_terminal", "rate_functions"),
    ("mc_verify", "ldp_slope", "mc_verify"),
    ("mc_verify", "estimate_event_prob", "mc_verify"),
    ("mc_verify", "simulate_controlled", "sve_sim"),
    ("rate_functions", "ldp_rate_terminal", "rate_functions"),
    ("rate_functions", "mdp_rate_terminal_x", "rate_functions"),
    ("rate_functions", "regenerate_smalltime_pair", "rate_functions"),
    ("rate_functions", "conv_weights", "kernels"),
    ("rate_functions", "terminal_weights", "kernels"),
    ("rate_functions", "l2_norm_sq", "kernels"),
    # regenerate_smalltime_pair imports solve_ldp_limit at call time
    ("volterra_det", "solve_ldp_limit", "volterra_det"),
    ("volterra_det", "conv_weights", "kernels"),
    ("frac_calculus", "control_energy", "frac_calculus"),
    ("frac_calculus", "energy", "frac_calculus"),
    ("frac_calculus", "terminal_weights", "kernels"),
    ("frac_calculus", "l2_norm_sq", "kernels"),
    ("kernels", "KernelSpec.moment0", "kernels"),
    ("kernels", "KernelSpec.autocovariance", "kernels"),
)

SITES = tuple(f"{m}.{a}" for m, a, _ in CALL_SITES)
_LAYER_OF = {f"{m}.{a}": layer for m, a, layer in CALL_SITES}
_SOLVER_ERRORS = ("SolverFailure", "RateUnavailable")


def _on_ensemble(c, args, ens):
    c["sve_sim.paths"] += ens.n_paths
    c["sve_sim.path_steps"] += ens.n_paths * ens.grid.n_steps
    nbytes = ens.paths.nbytes + (0 if ens.log_weights is None else ens.log_weights.nbytes)
    c["sve_sim.path_bytes"] = max(c["sve_sim.path_bytes"], nbytes)


def _on_inversion(c, args, sigma):
    c["implied_vol.inversions"] += 1


def _on_smile(c, args, points):
    points = points if isinstance(points, list) else [points]
    c["implied_vol.flagged"] += sum(
        p.flag is not None or not math.isfinite(p.sigma_hat) for p in points
    )


def _on_level(c, args, out):
    p, se, hits = out
    n = args[0].n_paths
    c["mc_verify.levels"] += 1
    c["mc_verify.hits"] += hits
    c["mc_verify.paths"] += n
    # Kong ESS of w 1_A from its mean p and standard error se
    second = (n - 1) * se * se + p * p
    c["mc_verify.ess"] += n * p * p / second if second > 0.0 else 0.0


def _on_solve(c, args, res):
    c["rate_functions.solves"] += 1
    c["rate_functions.lbfgs_iters"] += res.iterations
    c["rate_functions.max_violation"] = max(
        c["rate_functions.max_violation"], res.constraint_violation
    )


def _on_limit(c, args, rep):
    c["volterra_det.solves"] += 1
    c["volterra_det.picard_iters"] += rep.picard_iterations
    c["volterra_det.max_residual"] = max(c["volterra_det.max_residual"], rep.residual)


_OBSERVERS = {
    "simulate": _on_ensemble,
    "simulate_controlled": _on_ensemble,
    "implied_vol": _on_inversion,
    "mc_smile": _on_smile,
    "smile_ldp": _on_smile,
    "estimate_event_prob": _on_level,
    "ldp_rate_terminal": _on_solve,
    "solve_ldp_limit": _on_limit,
}


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.lock = threading.Lock()
        self.stack: list[list[float]] = []  # child time of each open span
        self.depth: Counter = Counter()  # open spans per layer
        self.spans: list[tuple] = []  # (layer, site, duration, self, outermost, top)
        self.site_calls: Counter = Counter()
        self.counts: defaultdict = defaultdict(float)

    def wrap(self, fn, layer: str, site: str):
        observe = _OBSERVERS.get(site.rsplit(".", 1)[-1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.lock:
                self.site_calls[site] += 1
            if threading.get_ident() != self.thread:
                return fn(*args, **kwargs)
            top = not self.stack
            outermost = self.depth[layer] == 0
            self.depth[layer] += 1
            frame = [0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if layer == "rate_functions" and type(exc).__name__ in _SOLVER_ERRORS:
                    self.counts["rate_functions.failures"] += 1
                raise
            finally:
                dur = time.perf_counter() - start
                self.stack.pop()
                self.depth[layer] -= 1
                if self.stack:
                    self.stack[-1][0] += dur
                self.spans.append((layer, site, dur, dur - frame[0], outermost, top))
            if observe is not None:
                observe(self.counts, args, out)
            return out

        return traced

    def durations(self, attr: str) -> list[float]:
        """Durations of the spans around calls to ``attr``, from any call site."""
        return [s[2] for s in self.spans if s[1].rsplit(".", 1)[-1] == attr]

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        calls = Counter()
        for site, n in self.site_calls.items():
            calls[_LAYER_OF[site]] += n
        for layer in LAYERS:
            spans = [s for s in self.spans if s[0] == layer]
            out[f"{layer}.busy_s"] = sum(s[2] for s in spans if s[4])
            out[f"{layer}.self_s"] = sum(s[3] for s in spans)
            out[f"{layer}.calls"] = float(calls[layer])
        c = self.counts
        for key in (
            "sve_sim.paths",
            "sve_sim.path_bytes",
            "implied_vol.inversions",
            "implied_vol.flagged",
            "mc_verify.levels",
            "rate_functions.solves",
            "rate_functions.lbfgs_iters",
            "rate_functions.failures",
            "rate_functions.max_violation",
            "volterra_det.solves",
            "volterra_det.picard_iters",
            "volterra_det.max_residual",
        ):
            out[key] = float(c[key])
        steps = c["sve_sim.path_steps"]
        out["sve_sim.ns_per_path_step"] = 1e9 * out["sve_sim.busy_s"] / steps if steps else 0.0
        paths = c["mc_verify.paths"]
        out["mc_verify.hit_frac"] = c["mc_verify.hits"] / paths if paths else 0.0
        out["mc_verify.ess_frac"] = c["mc_verify.ess"] / paths if paths else 0.0
        solves = c["rate_functions.solves"]
        out["rate_functions.iters_per_solve"] = (
            c["rate_functions.lbfgs_iters"] / solves if solves else 0.0
        )
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(s[2] for s in self.spans if s[5])
        return out


# per-layer metrics of a traced pass: name -> (unit, better)
METRICS = {
    **{
        f"{layer}.{what}": (unit, "lower")
        for layer in LAYERS
        for what, unit in (("busy_s", "s"), ("self_s", "s"), ("calls", "count"))
    },
    "sve_sim.paths": ("count", "higher"),
    "sve_sim.ns_per_path_step": ("ns", "lower"),
    "sve_sim.path_bytes": ("B", "lower"),
    "mc_verify.levels": ("count", "higher"),
    "mc_verify.hit_frac": ("ratio", "higher"),
    "mc_verify.ess_frac": ("ratio", "higher"),
    "implied_vol.inversions": ("count", "higher"),
    "implied_vol.flagged": ("count", "lower"),
    "rate_functions.solves": ("count", "higher"),
    "rate_functions.lbfgs_iters": ("count", "lower"),
    "rate_functions.iters_per_solve": ("count", "lower"),
    "rate_functions.failures": ("count", "lower"),
    "rate_functions.max_violation": ("abs", "lower"),
    "volterra_det.solves": ("count", "higher"),
    "volterra_det.picard_iters": ("count", "lower"),
    "volterra_det.max_residual": ("abs", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def install(recorder: Recorder, layers=LAYERS):
    """Wrap every call site of the given layers; return (restore, missing)."""
    restore, missing = [], []
    for module, attr, layer in CALL_SITES:
        if layer not in layers:
            continue
        owner = importlib.import_module(f"volterra_deviations.{module}")
        name = attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, name, None) if owner is not None else None
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        setattr(owner, name, recorder.wrap(fn, layer, f"{module}.{attr}"))
        restore.append((owner, name, fn))
    return restore, missing


def uninstall(restore) -> None:
    for owner, name, fn in reversed(restore):
        setattr(owner, name, fn)
