"""The models' coefficient catalogue and the calls that read it.

Every scalar model states Sigma, zeta and (where its solver needs it) Sigma'
once; the multifactor model has no scalar catalogue, and every call that
needs one raises NotApplicable before it builds a kernel or an offset.
"""

import json
import math

import numpy as np
import pytest

from volterra_deviations.cli import run
from volterra_deviations.errors import NotApplicable
from volterra_deviations.frac_calculus import Control
from volterra_deviations.implied_vol import smile_ldp, smile_mdp, smile_tail
from volterra_deviations.kernels import GridFunction, TimeGrid
from volterra_deviations.mc_verify import EventSpec, build_is_control
from volterra_deviations.rate_functions import (
    ldp_rate_pair,
    ldp_rate_terminal,
    mdp_rate_terminal_x,
    regenerate_mdp_pair,
    regenerate_smalltime_pair,
    regenerate_tail_pair,
    tail_mdp_rate_y,
    tail_rate_heston,
    tail_rate_steinstein,
    tail_rate_terminal,
)
from volterra_deviations.sve_sim import (
    MultiRoughBergomi,
    RoughBergomi,
    RoughHeston,
    RoughSteinStein,
)

H = 0.1
MULTI_REC = {
    "variant": "multi_rough_bergomi",
    "loadings": [[1.0, 0.0], [0.6, 0.8]],
    "a": [0.1, 0.1],
    "y0": [-3.0, -3.2],
    "rho": [-0.3, 0.2],
    "hurst": [0.1, 0.1],
}
MULTI = MultiRoughBergomi(
    loadings=((1.0, 0.0), (0.6, 0.8)),
    a=(0.1, 0.1),
    y0=(-3.0, -3.2),
    rho=(-0.3, 0.2),
    hurst=(0.1, 0.1),
)
SS = RoughSteinStein(kappa=1.0, theta=0.1, xi=0.4, rho=-0.3, y0=0.3, hurst=H)
BERGOMI = RoughBergomi(a=0.3, rho=-0.5, y0=-3.0, hurst=H)
HESTON = RoughHeston(kappa=1.0, theta=0.04, xi=0.3, rho=0.0, y0=0.04, hurst=H)


class TestCatalogue:
    @pytest.mark.parametrize("model", [SS, BERGOMI], ids=["stein_stein", "bergomi"])
    def test_sigma_sq_prime_is_the_derivative(self, model):
        y = np.linspace(-3.5, 0.5, 9)
        h = 1e-6
        fd = (model.sigma_sq(y + h) - model.sigma_sq(y - h)) / (2.0 * h)
        assert np.allclose(model.sigma_sq_prime(y), fd, rtol=1e-8, atol=1e-10)

    def test_heston_sigma_floors_at_zero(self):
        y = np.array([-0.02, 0.0, 0.04])
        assert np.array_equal(HESTON.sigma_sq(y), [0.0, 0.0, 0.04])
        assert np.array_equal(HESTON.zeta(y), HESTON.xi * np.sqrt(HESTON.sigma_sq(y)))

    def test_heston_pair_rate_gives_no_price_control_below_zero(self):
        # Sigma = 0 where the path dips below zero: u = 0 there, not NaN,
        # and those nodes carry no energy either way
        grid = TimeGrid(1.0, 256)
        t = grid.nodes
        vphi = 0.04 - 0.08 * t
        r = ldp_rate_pair(HESTON, GridFunction(grid, 0.1 * t), GridFunction(grid, vphi))
        u = r.optimal_control.values.values[:, 1]
        assert np.all(np.isfinite(u))
        assert np.all(u[vphi < 0.0] == 0.0) and np.sum(vphi < 0.0) == 128
        assert math.isfinite(r.value) and r.value > 0.0

    @pytest.mark.parametrize("name", ["sigma_sq", "zeta", "sigma_sq_prime"])
    def test_multifactor_has_no_scalar_catalogue(self, name):
        with pytest.raises(NotApplicable):
            getattr(MULTI, name)(np.asarray(MULTI.y0))

    def test_multifactor_has_no_zeta_constant_flag(self):
        with pytest.raises(NotApplicable):
            MULTI.zeta_constant

    def test_heston_catalogues_no_sigma_prime(self):
        with pytest.raises(NotApplicable):
            HESTON.sigma_sq_prime(0.04)


GRID = TimeGrid(1.0, 16)
GRID_PHI = GridFunction(GRID, 0.1 * GRID.nodes)
GRID_VPHI = GridFunction(GRID, np.tile(MULTI.y0, (len(GRID), 1)))
GRID_ZERO = GridFunction(GRID, np.zeros(len(GRID)))

MULTI_CALLS = {
    "ldp_rate_terminal_x": lambda: ldp_rate_terminal(MULTI, 0.1, "x", n_steps=16),
    "ldp_rate_terminal_y": lambda: ldp_rate_terminal(MULTI, -2.9, "y", n_steps=16),
    "tail_rate_terminal": lambda: tail_rate_terminal(MULTI, 1.0, n_steps=16),
    "smile_ldp": lambda: smile_ldp(MULTI, 0.1, 0.01, n_steps=16),
    "smile_tail": lambda: smile_tail(MULTI, 0.1, 1.0, n_steps=16),
    "smile_mdp": lambda: smile_mdp(MULTI, 0.1, 0.01, beta=0.05),
    "mdp_rate_terminal_x": lambda: mdp_rate_terminal_x(MULTI, 0.1),
    "ldp_rate_pair": lambda: ldp_rate_pair(MULTI, GRID_PHI, GRID_VPHI),
    "tail_rate_steinstein": lambda: tail_rate_steinstein(MULTI, GRID_PHI, GRID_VPHI),
    "tail_rate_heston": lambda: tail_rate_heston(MULTI, GRID_PHI, GRID_ZERO),
    "tail_mdp_rate_y": lambda: tail_mdp_rate_y(MULTI, GRID_ZERO),
    "regenerate_tail_pair": lambda: regenerate_tail_pair(
        MULTI, Control(GridFunction(GRID, np.zeros((len(GRID), 2))))
    ),
    "regenerate_smalltime_pair": lambda: regenerate_smalltime_pair(
        MULTI, Control(GridFunction(GRID, np.zeros((len(GRID), 3))))
    ),
    "regenerate_mdp_pair": lambda: regenerate_mdp_pair(
        MULTI, Control(GridFunction(GRID, np.zeros((len(GRID), 3))))
    ),
    "build_is_control_price": lambda: build_is_control(MULTI, EventSpec(0, 0.1), GRID),
    "build_is_control_vol": lambda: build_is_control(MULTI, EventSpec(1, -2.5), GRID),
}


class TestMultifactorFailsLoudly:
    @pytest.mark.parametrize("name", sorted(MULTI_CALLS))
    def test_call_raises_not_applicable(self, name):
        with pytest.raises(NotApplicable):
            MULTI_CALLS[name]()

    @pytest.mark.parametrize("regime", ["ldp", "mdp", "tail"])
    def test_cli_smile_exits_1(self, tmp_path, capsys, regime):
        cfg = tmp_path / "m.json"
        smile = {"maturity": 0.01, "strikes": [0.1], "n_steps": 16, "beta": 0.05}
        cfg.write_text(json.dumps({"model": MULTI_REC, "smile": smile}))
        assert run(["smile", "--model", str(cfg), "--regime", regime]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("family", ["small_time", "tail", "mdp"])
    def test_cli_limit_solve_exits_1(self, tmp_path, capsys, family):
        cfg = tmp_path / "lim.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": MULTI_REC,
                    "grid": {"horizon": 1.0, "n_steps": 16},
                    "family": family,
                    "control": {"v": {"constant": 0.5}},
                }
            )
        )
        assert run(["limit", "solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


# the tail rescaling is catalogued for Stein-Stein and rough Heston only
BERGOMI_TAIL_CALLS = {
    "tail_rate_steinstein": lambda: tail_rate_steinstein(BERGOMI, GRID_PHI, GRID_ZERO),
    "tail_rate_heston": lambda: tail_rate_heston(BERGOMI, GRID_PHI, GRID_ZERO),
    "tail_mdp_rate_y": lambda: tail_mdp_rate_y(BERGOMI, GRID_ZERO),
    "tail_rate_terminal": lambda: tail_rate_terminal(BERGOMI, 1.0, n_steps=16),
    "regenerate_tail_pair": lambda: regenerate_tail_pair(
        BERGOMI, Control(GridFunction(GRID, np.zeros((len(GRID), 2))))
    ),
}


class TestTailCatalogue:
    @pytest.mark.parametrize("name", sorted(BERGOMI_TAIL_CALLS))
    def test_bergomi_tail_call_raises_not_applicable(self, name):
        with pytest.raises(NotApplicable):
            BERGOMI_TAIL_CALLS[name]()

    def test_stein_stein_entry_on_heston_is_the_heston_tail_rate(self):
        grid = TimeGrid(1.0, 256)
        t = grid.nodes
        vphi = GridFunction(grid, 0.2 * t ** (H + 0.5))
        phi = GridFunction(grid, 0.3 * t)
        got = tail_rate_steinstein(HESTON, phi, vphi)
        want = tail_rate_heston(HESTON, phi, vphi, delta=0.0)
        assert got.value == want.value
        assert np.array_equal(got.optimal_control.values.values, want.optimal_control.values.values)

    def test_cli_tail_rate_eval_on_bergomi_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        rec = {"variant": "rough_bergomi", "a": 0.3, "rho": -0.5, "y0": -3.0, "hurst": H}
        cfg.write_text(json.dumps({"model": rec, "family": "tail"}))
        path = tmp_path / "p.csv"
        path.write_text("t,phi,vphi\n" + "".join(f"{t},{0.1 * t},0.0\n" for t in GRID.nodes))
        assert run(["rate", "eval", "--model", str(cfg), "--path", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
