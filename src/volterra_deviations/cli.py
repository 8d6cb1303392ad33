"""Configuration-driven command line: kernels, limit, simulate, rate, smile, verify.

One JSON config describes one run; every output file starts with a comment
header (or ``_meta`` object) carrying the config hash and seed, plus a
timestamp unless ``--deterministic`` is passed.  Exit codes: 0 success,
1 domain error, 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone

import jsonschema
import numpy as np

from . import __version__
from .errors import ConfigError, DomainError
from .frac_calculus import Control
from .kernels import GridFunction, TimeGrid, kernel_from_config
from .sve_sim import (
    MultiRoughBergomi,
    RoughBergomi,
    RoughHeston,
    RoughSteinStein,
    ScalingRegime,
    simulate,
)

_BIN_MAGIC = b"VDPATHS1"


# ---------------------------------------------------------------------------
# config records
# ---------------------------------------------------------------------------

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "n_steps": {"type": "integer", "minimum": 1},
    },
    "required": ["horizon", "n_steps"],
    "additionalProperties": False,
}

_MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "variant": {
            "enum": [
                "rough_stein_stein",
                "rough_bergomi",
                "rough_heston",
                "multi_rough_bergomi",
            ]
        },
        "kappa": {"type": "number"},
        "theta": {"type": "number"},
        "xi": {"type": "number"},
        "rho": {},
        "y0": {},
        "hurst": {},
        "a": {},
        "loadings": {"type": "array"},
    },
    "required": ["variant"],
    "additionalProperties": False,
}

_REGIME_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {
            "enum": ["small_time_ldp", "small_time_mdp", "tail_ldp", "tail_mdp"]
        },
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "beta": {"type": "number"},
    },
    "required": ["kind", "eps"],
    "additionalProperties": False,
}

_CONTROL_SCHEMA = {
    "type": "object",
    "properties": {
        "v": {"type": "object"},
        "u": {"type": "object"},
    },
    "additionalProperties": False,
}

_SCHEMAS = {
    "kernels": {
        "type": "object",
        "properties": {
            "kernel": {"type": "object"},
            "gamma_claim": {"type": "number"},
            "h_grid": {"type": "array", "items": {"type": "number"}},
            "horizon": {"type": "number"},
        },
        "required": ["kernel", "gamma_claim", "h_grid"],
        "additionalProperties": False,
    },
    "limit": {
        "type": "object",
        "properties": {
            "model": _MODEL_SCHEMA,
            "grid": _GRID_SCHEMA,
            "family": {"enum": ["small_time", "tail", "mdp"]},
            "control": _CONTROL_SCHEMA,
            "branch_policy": {"enum": ["continue_positive", "absorb_at_zero"]},
        },
        "required": ["model", "grid", "family", "control"],
        "additionalProperties": False,
    },
    "simulate": {
        "type": "object",
        "properties": {
            "model": _MODEL_SCHEMA,
            "regime": _REGIME_SCHEMA,
            "grid": _GRID_SCHEMA,
        },
        "required": ["model", "regime", "grid"],
        "additionalProperties": False,
    },
    "rate": {
        "type": "object",
        "properties": {
            "model": _MODEL_SCHEMA,
            "family": {"enum": ["small_time", "small_time_mdp", "tail"]},
            "delta": {"type": "number", "minimum": 0},
            "grid": _GRID_SCHEMA,
        },
        "required": ["model"],
        "additionalProperties": False,
    },
    "smile": {
        "type": "object",
        "properties": {
            "model": _MODEL_SCHEMA,
            "smile": {
                "type": "object",
                "properties": {
                    "maturity": {"type": "number", "exclusiveMinimum": 0},
                    "strikes": {"type": "array", "items": {"type": "number"}},
                    "beta": {"type": "number"},
                    "paths": {"type": "integer", "minimum": 1},
                    "seed": {"type": "integer"},
                    "n_steps": {"type": "integer", "minimum": 1},
                },
                "required": ["maturity", "strikes"],
                "additionalProperties": False,
            },
        },
        "required": ["model", "smile"],
        "additionalProperties": False,
    },
    "verify": {
        "type": "object",
        "properties": {
            "model": _MODEL_SCHEMA,
            "event": {
                "type": "object",
                "properties": {
                    "component": {"type": "integer", "minimum": 0},
                    "level": {"type": "number"},
                    "direction": {"enum": ["ge", "le"]},
                    "t_eval": {"type": "number"},
                },
                "required": ["component", "level"],
                "additionalProperties": False,
            },
            "epsilons": {"type": "array", "items": {"type": "number"}, "minItems": 2},
            "regime": {
                "enum": ["small_time_ldp", "small_time_mdp", "tail_ldp", "tail_mdp"]
            },
            "beta": {"type": "number"},
            "paths": {"type": "integer", "minimum": 1000},
            "seed": {"type": "integer"},
            "grid": _GRID_SCHEMA,
            "importance_sampling": {"type": "boolean"},
            "reference_rate": {"type": "number"},
        },
        "required": ["model", "event", "epsilons", "regime", "paths", "seed", "grid"],
        "additionalProperties": False,
    },
}


def _load_config(path: str, schema_key: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    try:
        jsonschema.validate(cfg, _SCHEMAS[schema_key])
    except jsonschema.ValidationError as exc:
        raise ConfigError(
            f"config {path} violates the {schema_key} schema at "
            f"{'/'.join(str(p) for p in exc.absolute_path) or '<root>'}: {exc.message}"
        ) from exc
    return cfg


def model_from_config(rec: dict):
    variant = rec.get("variant")
    params = {k: v for k, v in rec.items() if k != "variant"}
    try:
        if variant == "rough_stein_stein":
            return RoughSteinStein(**params)
        if variant == "rough_bergomi":
            return RoughBergomi(**params)
        if variant == "rough_heston":
            return RoughHeston(**params)
        if variant == "multi_rough_bergomi":
            params = {
                k: tuple(tuple(r) for r in v) if k == "loadings" else tuple(v)
                for k, v in params.items()
            }
            return MultiRoughBergomi(**params)
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"bad model record at model: {exc}") from exc
    raise ConfigError(f"unknown model variant {variant!r} at model/variant")


def regime_from_config(rec: dict) -> ScalingRegime:
    try:
        return ScalingRegime(rec["kind"], rec["eps"], rec.get("beta"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad regime record at regime: {exc}") from exc


def grid_from_config(rec: dict) -> TimeGrid:
    try:
        return TimeGrid(rec["horizon"], rec["n_steps"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad grid record at grid: {exc}") from exc


def _channel_values(rec: dict, grid: TimeGrid, name: str) -> np.ndarray:
    if "constant" in rec:
        return np.full(len(grid), float(rec["constant"]))
    if "values" in rec:
        vals = np.asarray(rec["values"], dtype=float)
        if len(vals) != len(grid):
            raise ConfigError(
                f"control/{name}/values has {len(vals)} samples, grid has {len(grid)} nodes"
            )
        return vals
    raise ConfigError(f"control/{name} needs 'constant' or 'values'")


def control_from_config(rec: dict, grid: TimeGrid) -> Control:
    v = _channel_values(rec.get("v", {"constant": 0.0}), grid, "v")
    u = _channel_values(rec.get("u", {"constant": 0.0}), grid, "u")
    return Control(GridFunction(grid, np.stack([v, u], axis=1)))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _header_comment(cfg: dict, seed, deterministic: bool) -> str:
    parts = [f"config_hash={config_hash(cfg)}", f"seed={seed}"]
    if not deterministic:
        parts.append(f"timestamp={datetime.now(timezone.utc).isoformat()}")
    parts.append(f"volterra_deviations={__version__}")
    return "# " + " ".join(parts)


def _meta(cfg: dict, seed, deterministic: bool) -> dict:
    meta = {"config_hash": config_hash(cfg), "seed": seed, "version": __version__}
    if not deterministic:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _write_json(path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _write_csv(path, header_comment: str, columns: list[str], rows):
    lines = [header_comment, ",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        print(text, end="")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_paths_binary(path: str, paths: np.ndarray):
    n_paths, n_nodes, d = paths.shape
    header = _BIN_MAGIC + np.asarray([n_paths, n_nodes, d], dtype="<u8").tobytes()
    assert len(header) == 32
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(paths, dtype="<f8").tobytes())


def read_paths_binary(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if header[:8] != _BIN_MAGIC:
            raise ConfigError(f"{path} is not a paths binary (bad magic)")
        dims = np.frombuffer(header[8:], dtype="<u8")
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(tuple(int(x) for x in dims))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_kernels(args) -> int:
    from .kernels import check_regularity

    cfg = _load_config(args.config, "kernels")
    kernel = kernel_from_config(cfg["kernel"])
    rep = check_regularity(
        kernel, cfg["gamma_claim"], cfg["h_grid"], horizon=cfg.get("horizon", 1.0)
    )
    payload = {
        "_meta": _meta(cfg, None, args.deterministic),
        "gamma_claim": rep.gamma_claim,
        "fitted_slope": rep.fitted_slope,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
        "h_values": list(rep.h_values),
        "functional": list(rep.functional),
    }
    _write_json(args.out, payload)
    return 0


def _cmd_limit(args) -> int:
    from .rate_functions import regenerate_pair

    cfg = _load_config(args.config, "limit")
    model = model_from_config(cfg["model"])
    grid = grid_from_config(cfg["grid"])
    ctrl = control_from_config(cfg["control"], grid)
    policy = cfg.get("branch_policy", "continue_positive")
    family = cfg["family"]
    phi, vphi, rep = regenerate_pair(
        model, ctrl, frozen=family == "mdp", tail=family == "tail", branch_policy=policy
    )
    rows = zip(grid.nodes, phi.values, vphi.values)
    header = _header_comment(cfg, None, args.deterministic) + f" family={family} branch={policy}"
    header += f" picard_iterations={rep.picard_iterations} residual={rep.residual!r}"
    _write_csv(args.out, header, ["t", "phi", "vphi"], rows)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, "simulate")
    model = model_from_config(cfg["model"])
    regime = regime_from_config(cfg["regime"])
    grid = grid_from_config(cfg["grid"])
    ens = simulate(model, regime, grid, args.paths, args.seed, threads=args.threads)
    if args.out and args.out.endswith(".bin"):
        _write_paths_binary(args.out, ens.paths)
        return 0
    d = ens.paths.shape[2]
    columns = ["path", "t"] + [f"c{j}" for j in range(d)]
    rows = []
    for p in range(ens.paths.shape[0]):
        for i, t in enumerate(grid.nodes):
            rows.append([p, t, *ens.paths[p, i, :]])
    header = _header_comment(cfg, args.seed, args.deterministic)
    header += f" regularized={ens.bump!r} paths=0..{ens.n_paths - 1}"
    _write_csv(args.out, header, columns, rows)
    return 0


def _read_path_csv(path: str):
    """Grid and (phi, vphi) columns; only lines before the first numeric row may be headers."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(x) for x in line.split(",")])
            except ValueError:
                if rows:
                    raise ConfigError(
                        f"path file {path}, line {lineno}: not a row of numbers: {line!r}"
                    ) from None
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 3:
        raise ConfigError(f"path file {path} needs columns t, phi, vphi")
    t = arr[:, 0]
    n = len(t) - 1
    horizon = float(t[-1])
    try:
        grid = TimeGrid(horizon, n)
    except ValueError as exc:
        raise ConfigError(f"path file {path} needs times from 0 to a positive end: {exc}") from exc
    if not np.allclose(t, grid.nodes, rtol=0, atol=1e-9 * max(1.0, horizon)):
        raise ConfigError(f"path file {path} must be sampled on a uniform grid from 0")
    return grid, arr[:, 1], arr[:, 2]


def _cmd_rate(args) -> int:
    from .rate_functions import (
        heston_rate,
        ldp_rate_pair,
        ldp_rate_terminal,
        mdp_rate_pair,
        tail_rate_heston,
        tail_rate_steinstein,
    )

    cfg = _load_config(args.model, "rate")
    model = model_from_config(cfg["model"])
    family = cfg.get("family", "small_time")
    if args.mode == "eval":
        grid, phi_vals, vphi_vals = _read_path_csv(args.path)
        phi = GridFunction(grid, phi_vals)
        vphi = GridFunction(grid, vphi_vals)
        if family == "small_time":
            if isinstance(model, RoughHeston):
                res = heston_rate(model, phi, vphi, delta=cfg.get("delta", 1e-4))
            else:
                res = ldp_rate_pair(model, phi, vphi)
        elif family == "small_time_mdp":
            res = mdp_rate_pair(model, phi, vphi)
        else:
            if isinstance(model, RoughHeston):
                res = tail_rate_heston(model, phi, vphi, delta=cfg.get("delta", 1e-4))
            else:
                res = tail_rate_steinstein(model, phi, vphi)
        payload = {
            "_meta": _meta(cfg, None, args.deterministic),
            "value": res.value,
            "regularization_delta": res.regularization_delta,
            "richardson_value": res.richardson_value,
        }
    else:  # minimize
        key, _, val = args.terminal.partition("=")
        if key not in ("x", "y") or not val:
            raise ConfigError("--terminal must look like x=<value> or y=<value>")
        try:
            target = float(val)
        except ValueError:
            target = math.nan
        if not math.isfinite(target):
            raise ConfigError(f"--terminal value must be a finite number, got {val!r}")
        grid_rec = cfg.get("grid", {"horizon": 1.0, "n_steps": 512})
        res = ldp_rate_terminal(
            model,
            target,
            component=key,
            n_steps=grid_rec["n_steps"],
            horizon=grid_rec["horizon"],
        )
        payload = {
            "_meta": _meta(cfg, None, args.deterministic),
            "value": res.value,
            "converged": res.diagnostics["converged"],
            "constraint_violation": res.constraint_violation,
            "iterations": res.iterations,
            "starts": res.diagnostics["starts"],
        }
    _write_json(args.out, payload)
    return 0


def _cmd_smile(args) -> int:
    from .implied_vol import mc_smile, smile_ldp, smile_mdp, smile_tail

    cfg = _load_config(args.model, "smile")
    model = model_from_config(cfg["model"])
    blk = cfg["smile"]
    t = blk["maturity"]
    strikes = blk["strikes"]
    # the solver regimes keep their own grid defaults unless n_steps is given
    steps = {"n_steps": blk["n_steps"]} if "n_steps" in blk else {}
    points = []
    if args.regime == "ldp":
        points = [smile_ldp(model, k, t, **steps) for k in strikes]
    elif args.regime == "mdp":
        beta = blk.get("beta", 0.5 * model.min_hurst)
        points = [smile_mdp(model, k, t, beta) for k in strikes]
    elif args.regime == "tail":
        points = [smile_tail(model, t, k, **steps) for k in strikes]
    else:
        points = mc_smile(
            model,
            t,
            strikes,
            blk.get("paths", 100_000),
            blk.get("seed", 0),
            n_steps=blk.get("n_steps", 192),
            threads=args.threads,
        )
    columns = ["t", "k", "sigma_hat", "stderr"]
    rows = [
        [
            p.maturity,
            p.log_moneyness,
            p.sigma_hat,
            p.stderr if p.stderr is not None else float("nan"),
        ]
        for p in points
    ]
    if args.regime in ("ldp", "tail"):  # where the rate infimum sits on the ray
        columns.append("k_attained")
        for row, p in zip(rows, points):
            row.append(p.attained)
    header = (
        _header_comment(cfg, blk.get("seed", 0), args.deterministic)
        + f" regime={args.regime} source={points[0].source if points else 'n/a'}"
    )
    if args.regime == "mc":  # the F - 1 control of each point, the run's Cholesky bump
        columns += ["control_coef", "variance_ratio"]
        for row, p in zip(rows, points):
            row += [p.control_coef, p.variance_ratio]
        header += f" regularized={points[0].bump if points else 0.0!r}"
    _write_csv(args.out, header, columns, rows)
    return 0


def _cmd_verify(args) -> int:
    from .mc_verify import DeviationExperiment, EventSpec, build_is_control, ldp_slope

    cfg = _load_config(args.experiment, "verify")
    model = model_from_config(cfg["model"])
    grid = grid_from_config(cfg["grid"])
    ev = cfg["event"]
    event = EventSpec(
        component=ev["component"],
        level=ev["level"],
        direction=ev.get("direction", "ge"),
        t_eval=ev.get("t_eval"),
    )
    try:
        exp = DeviationExperiment(
            model=model,
            event=event,
            epsilons=tuple(cfg["epsilons"]),
            regime_kind=cfg["regime"],
            beta=cfg.get("beta"),
            n_paths=cfg["paths"],
            seed=cfg["seed"],
            grid=grid,
            reference_rate=cfg.get("reference_rate"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad experiment at epsilons/regime/beta: {exc}") from exc
    if cfg.get("importance_sampling", False):
        exp.is_control = build_is_control(model, event, grid, cfg["regime"])
    rep = ldp_slope(exp)
    payload = {
        "_meta": _meta(cfg, cfg["seed"], args.deterministic),
        "epsilons": list(rep.epsilons),
        "p_hats": list(rep.p_hats),
        "stderrs": list(rep.stderrs),
        "hit_counts": list(rep.hit_counts),
        "s_values": list(rep.s_values),
        "f_values": list(rep.f_values),
        "intercept": rep.intercept,
        "slope": rep.slope,
        "reference_rate": rep.reference_rate,
        "relative_gap": rep.relative_gap,
        "used_importance_sampling": rep.used_importance_sampling,
    }
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None, help="worker threads")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress timestamps for byte-identical reruns",
    )
    ap = argparse.ArgumentParser(
        prog="vd",
        description="stochastic Volterra deviations toolkit",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernels", help="kernel regularity report", parents=[common])
    k.add_argument("--config", required=True)
    k.add_argument("--out")
    k.set_defaults(fn=_cmd_kernels)

    lim = sub.add_parser("limit", help="deterministic limit equations")
    lsub = lim.add_subparsers(dest="mode", required=True)
    ls = lsub.add_parser("solve", parents=[common])
    ls.add_argument("--config", required=True)
    ls.add_argument("--out")
    ls.set_defaults(fn=_cmd_limit)

    sim = sub.add_parser("simulate", help="simulate the rescaled system", parents=[common])
    sim.add_argument("--config", required=True)
    sim.add_argument("--paths", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out")
    sim.set_defaults(fn=_cmd_simulate)

    rate = sub.add_parser("rate", help="rate evaluation / minimization")
    rsub = rate.add_subparsers(dest="mode", required=True)
    re_ = rsub.add_parser("eval", parents=[common])
    re_.add_argument("--model", required=True)
    re_.add_argument("--path", required=True)
    re_.add_argument("--out")
    re_.set_defaults(fn=_cmd_rate)
    rm = rsub.add_parser("minimize", parents=[common])
    rm.add_argument("--model", required=True)
    rm.add_argument("--terminal", required=True, help="x=<value> or y=<value>")
    rm.add_argument("--out")
    rm.set_defaults(fn=_cmd_rate)

    smile = sub.add_parser("smile", help="implied-volatility points", parents=[common])
    smile.add_argument("--model", required=True)
    smile.add_argument("--regime", required=True, choices=["ldp", "mdp", "tail", "mc"])
    smile.add_argument("--out")
    smile.set_defaults(fn=_cmd_smile)

    ver = sub.add_parser("verify", help="epsilon-sweep slope experiment", parents=[common])
    ver.add_argument("--experiment", required=True)
    ver.add_argument("--out")
    ver.set_defaults(fn=_cmd_verify)
    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console-script entry
    sys.exit(run())
