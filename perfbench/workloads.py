"""The three benchmark workloads: inputs, one closed-loop pass, result checks.

Every workload calls the toolkit through module attributes looked up at call
time (``iv.mc_smile``, ``rf.ldp_rate_terminal``), so the traced pass sees
the benchmark's own calls as well as the internal ones.  The workload seed
reaches only the Monte Carlo seeds; ``scale`` shrinks path counts and grids
for the span test and is 1 in every measured run.
"""

from __future__ import annotations

import importlib
import math

H = 0.1
Y0 = math.log(0.04)
HESTON = dict(kappa=1.0, theta=0.04, xi=0.3, y0=0.04, hurst=H)


def _mod(name: str):
    return importlib.import_module(f"volterra_deviations.{name}")


class Failed(Exception):
    """An operation of the workload failed; the pass still reports its counts."""


class HestonSmileMC:
    name = "heston_smile_mc"
    why = (
        "rough Heston Monte Carlo smile: Volterra-Euler O(n^2) history sum, "
        "Philox/ndtri draws and a 103 MB path tensor; no factor, weights or solver"
    )
    maturities = (0.04, 0.02, 0.01)
    n_steps = 128
    n_paths = 50_000
    target_stderr = 1e-3  # implied-vol units
    layers = ("implied_vol", "sve_sim", "kernels")
    ops = 2 * len(maturities)  # smile points

    def setup(self, seed: int, scale: float = 1.0):
        sv = _mod("sve_sim")
        model = sv.RoughHeston(rho=-0.7, **HESTON)
        strikes = {
            t: (-0.1 * t ** (0.5 - H / 2.0), 0.1 * t ** (0.5 - H / 2.0))
            for t in self.maturities
        }
        return dict(
            model=model,
            strikes=strikes,
            seed=seed,
            n_paths=max(1000, int(self.n_paths * scale)),
            n_steps=max(16, int(self.n_steps * scale)),
        )

    def run(self, inp):
        iv = _mod("implied_vol")
        smiles = {}
        for t in self.maturities:
            smiles[t] = iv.mc_smile(
                inp["model"], t, list(inp["strikes"][t]), inp["n_paths"], inp["seed"],
                n_steps=inp["n_steps"],
            )
        points = [p for pts in smiles.values() for p in pts]
        bad = sum(p.flag is not None or not math.isfinite(p.sigma_hat) for p in points)
        return dict(
            smiles=smiles,
            failed=bad,
            numbers=[x for p in points for x in (p.sigma_hat, p.stderr or 0.0)],
            path_steps=len(self.maturities) * inp["n_paths"] * inp["n_steps"],
            accuracy=max(p.stderr or math.inf for p in points) / self.target_stderr,
        )

    def check(self, res):
        points = [p for pts in res["smiles"].values() for p in pts]
        bad = [p for p in points if p.flag is not None or not math.isfinite(p.sigma_hat)]
        dists = [abs(res["smiles"][t][1].sigma_hat - 0.2) for t in self.maturities]
        shrinking = all(dists[i + 1] < dists[i] for i in range(len(dists) - 1))
        return [
            ("points finite and unflagged", not bad, f"{len(bad)} of {len(points)} bad"),
            (
                "k>0 distance to sqrt(Sigma(y0)) = 0.2 shrinks as t falls",
                shrinking,
                " > ".join(f"{d:.5f}" for d in dists),
            ),
        ]


class BergomiISSweep:
    name = "bergomi_is_sweep"
    why = (
        "importance-sampled LDP slope on rough Bergomi: exact joint-Gaussian factor "
        "sampling, Girsanov weights and mc_verify reductions; no Euler history sum or solver"
    )
    thetas = (0.4, 0.3, 0.2, 0.15)
    n_steps = 64
    n_paths = 50_000
    max_gap = 0.10
    target_rel_stderr = 0.01
    layers = ("mc_verify", "sve_sim", "kernels")
    ops = len(thetas)  # epsilon levels

    def setup(self, seed: int, scale: float = 1.0):
        sv, kn, mcv = _mod("sve_sim"), _mod("kernels"), _mod("mc_verify")
        model = sv.RoughBergomi(a=0.0, rho=0.0, y0=Y0, hurst=H)
        grid = kn.TimeGrid(1.0, max(16, int(self.n_steps * scale)))
        event = mcv.EventSpec(component=1, level=Y0 + 1.0)
        control = mcv.build_is_control(model, event, grid, "small_time_ldp")
        norm_sq = kn.l2_norm_sq(kn.power_law(H), 1.0)
        exp = mcv.DeviationExperiment(
            model=model,
            event=event,
            epsilons=tuple(th ** (1.0 / H) for th in self.thetas),
            n_paths=max(1000, int(self.n_paths * scale)),
            seed=seed,
            grid=grid,
            is_control=control,
            reference_rate=1.0 / (2.0 * norm_sq),
        )
        return dict(exp=exp)

    def run(self, inp):
        mcv, errors = _mod("mc_verify"), _mod("errors")
        exp = inp["exp"]
        try:
            rep = mcv.ldp_slope(exp)
        except errors.InsufficientHits as exc:
            raise Failed(f"ldp_slope: {exc}") from exc
        rel = [se / p for p, se in zip(rep.p_hats, rep.stderrs)]
        return dict(
            report=rep,
            failed=0,
            numbers=[*rep.p_hats, *rep.stderrs, *rep.hit_counts, rep.intercept, rep.slope],
            path_steps=self.ops * exp.n_paths * exp.grid.n_steps,
            accuracy=max(rel) / self.target_rel_stderr,
        )

    def check(self, res):
        rep = res["report"]
        return [
            (
                f"relative gap to 1/(2|K|^2) <= {self.max_gap}",
                rep.relative_gap <= self.max_gap,
                f"intercept {rep.intercept:.5f} vs -{rep.reference_rate:.5f}, "
                f"gap {rep.relative_gap:.4f}",
            )
        ]


class LdpRateSolves:
    name = "ldp_rate_solves"
    why = (
        "terminal LDP variational solves, no simulation: penalty-continuation L-BFGS "
        "in rate_functions over dense kernel matrices, plus one volterra_det round trip"
    )
    smile_n = 128
    solve_n = 512
    cm_offsets = (0.5, 1.0, 2.0)
    max_oracle_err = 0.01
    max_round_trip_gap = 1e-3  # sup gap after the first 3 nodes, as in criterion 4
    layers = ("implied_vol", "rate_functions", "kernels", "frac_calculus", "volterra_det")
    ops = 2 + len(cm_offsets) + 2  # smile points, solves, round trip

    def setup(self, seed: int, scale: float = 1.0):
        sv, kn = _mod("sve_sim"), _mod("kernels")
        del seed  # no simulation: the inputs do not depend on the seed
        return dict(
            bergomi=sv.RoughBergomi(a=0.5, rho=-0.5, y0=Y0, hurst=H),
            heston=sv.RoughHeston(rho=-0.7, **HESTON),
            gaussian=sv.RoughBergomi(a=0.0, rho=0.0, y0=Y0, hurst=H),
            heston_mdp=sv.RoughHeston(rho=-0.4, **HESTON),
            norm_sq=kn.l2_norm_sq(kn.power_law(H), 1.0),
            smile_n=max(16, int(self.smile_n * scale)),
            solve_n=max(16, int(self.solve_n * scale)),
        )

    def run(self, inp):
        iv, rf, fc, errors = map(_mod, ("implied_vol", "rate_functions", "frac_calculus", "errors"))
        try:
            smile = [
                iv.smile_ldp(inp["bergomi"], 0.1, 0.01, n_steps=inp["smile_n"]),
                iv.smile_ldp(inp["heston"], -0.1, 0.01, n_steps=inp["smile_n"]),
            ]
            cm = [
                rf.ldp_rate_terminal(
                    inp["gaussian"], Y0 + dy, component="y", n_steps=inp["solve_n"]
                )
                for dy in self.cm_offsets
            ]
            frozen = rf.ldp_rate_terminal(
                inp["heston_mdp"], 0.1, component="x", n_steps=inp["solve_n"], frozen=True
            )
        except (errors.SolverFailure, errors.RateUnavailable) as exc:
            raise Failed(f"{type(exc).__name__}: {exc}") from exc
        mdp_oracle = rf.mdp_rate_terminal_x(inp["heston_mdp"], 0.1)
        _, vphi = rf.regenerate_smalltime_pair(inp["gaussian"], cm[-1])
        trip_gap = float(abs(vphi.values[3:] - cm[-1].optimal_path.values[3:, 1]).max())
        energy = fc.control_energy(cm[-1].optimal_control)
        cm_err = [
            abs(r.value / (dy * dy / (2.0 * inp["norm_sq"])) - 1.0)
            for r, dy in zip(cm, self.cm_offsets)
        ]
        bad = sum(not (math.isfinite(p.sigma_hat) and p.sigma_hat > 0.0) for p in smile)
        return dict(
            smile=smile,
            cm_err=cm_err,
            mdp_err=abs(frozen.value / mdp_oracle - 1.0),
            trip_gap=trip_gap,
            energy_err=abs(energy / cm[-1].value - 1.0),
            failed=bad,
            numbers=[
                *(p.sigma_hat for p in smile),
                *(r.value for r in cm),
                *(r.iterations for r in cm),
                frozen.value,
                frozen.iterations,
                trip_gap,
                energy,
            ],
        )

    def check(self, res):
        smile = res["smile"]
        return [
            (
                "smile points finite and positive",
                all(math.isfinite(p.sigma_hat) and p.sigma_hat > 0.0 for p in smile),
                ", ".join(f"{p.sigma_hat:.6f}" for p in smile),
            ),
            (
                f"Cameron-Martin Y rates vs dy^2/(2|K|^2) within {self.max_oracle_err:.0%}",
                max(res["cm_err"]) <= self.max_oracle_err,
                "rel err " + ", ".join(f"{e:.2e}" for e in res["cm_err"]),
            ),
            (
                f"frozen MDP rate vs mdp_rate_terminal_x within {self.max_oracle_err:.0%}",
                res["mdp_err"] <= self.max_oracle_err,
                f"rel err {res['mdp_err']:.2e}",
            ),
            (
                f"regenerated Y path vs solver path sup gap <= {self.max_round_trip_gap}",
                res["trip_gap"] <= self.max_round_trip_gap,
                f"gap {res['trip_gap']:.2e}",
            ),
            (
                "control_energy of the optimal control equals the rate within 1e-9",
                res["energy_err"] <= 1e-9,
                f"rel err {res['energy_err']:.2e}",
            ),
        ]


WORKLOADS = {w.name: w for w in (HestonSmileMC(), BergomiISSweep(), LdpRateSolves())}
