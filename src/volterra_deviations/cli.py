"""Configuration-driven command line: kernels, limit, simulate, rate, smile, verify.

One JSON config describes one run; a config key left out keeps the library's
default.  A model, regime, grid or kernel record is built by the library
constructor it names, whose parameters are its keys and whose checks are its
checks; its values are numbers or arrays of numbers.  Every output starts
with one provenance record (``_meta`` in JSON, the ``# k=v`` header line of a
CSV) carrying the config hash, seed and version, plus a timestamp unless
``--deterministic`` is passed.  Exit codes:
0 success, 1 domain error, 2 config error (a bad config, or a file other than
the config that cannot be read or written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict
from datetime import datetime, timezone

import jsonschema
import numpy as np

from . import __version__, kernels
from .errors import ConfigError, DomainError
from .frac_calculus import Control
from .kernels import GridFunction, TimeGrid
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

# each channel is a constant or one value per grid node, never both
_CHANNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "constant": {"type": "number"},
        "values": {"type": "array", "items": {"type": "number"}},
    },
    "minProperties": 1,
    "maxProperties": 1,
    "additionalProperties": False,
}

_CONTROL_SCHEMA = {
    "type": "object",
    "properties": {"v": _CHANNEL_SCHEMA, "u": _CHANNEL_SCHEMA},
    "additionalProperties": False,
}

# a model, regime, grid or kernel record is checked by the constructor it builds (_record)
_RECORD = {"type": "object"}

_SCHEMAS = {
    "kernels": {
        "type": "object",
        "properties": {
            "kernel": _RECORD,
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
            "model": _RECORD,
            "grid": _RECORD,
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
            "model": _RECORD,
            "regime": _RECORD,
            "grid": _RECORD,
        },
        "required": ["model", "regime", "grid"],
        "additionalProperties": False,
    },
    "rate eval": {
        "type": "object",
        "properties": {
            "model": _RECORD,
            "family": {"enum": ["small_time", "small_time_mdp", "tail"]},
            "delta": {"type": "number", "minimum": 0},
        },
        "required": ["model"],
        "additionalProperties": False,
    },
    "rate minimize": {
        "type": "object",
        "properties": {"model": _RECORD, "grid": _RECORD},
        "required": ["model"],
        "additionalProperties": False,
    },
    "smile": {
        "type": "object",
        "properties": {
            "model": _RECORD,
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
            "model": _RECORD,
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
            "regime": {"type": "string"},
            "beta": {"type": "number"},
            "paths": {"type": "integer", "minimum": 1000},
            "seed": {"type": "integer"},
            "grid": _RECORD,
            "importance_sampling": {"type": "boolean"},
            "reference_rate": {"type": "number"},
        },
        "required": ["model", "event", "epsilons", "regime", "paths", "seed", "grid"],
        "additionalProperties": False,
    },
}


def _load_config(path: str, schema_key: str) -> dict:
    def finite(text):  # json reads NaN, +-Infinity and an overflowing 1e400 as non-finite floats
        x = float(text)
        if not math.isfinite(x):
            raise ConfigError(f"config {path} holds {text}; numbers must be finite")
        return x
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=finite, parse_constant=finite)
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


def _checked(at: str, build, /, **kwargs):
    """``build(**kwargs)``; what the library rejects is a ConfigError naming ``at``."""
    try:
        return build(**kwargs)
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"bad record at {at}: {exc}") from exc


def _control(grid: TimeGrid, **channels) -> Control:
    """Channels v and u, each a constant or one value per grid node; a missing one is 0."""
    cols = []
    for name in ("v", "u"):
        rec = channels.get(name, {"constant": 0.0})
        if "constant" in rec:
            cols.append(np.full(len(grid), float(rec["constant"])))
        elif len(rec["values"]) == len(grid):
            cols.append(np.asarray(rec["values"], dtype=float))
        else:
            n = len(rec["values"])
            raise ConfigError(f"control/{name}/values has {n} samples, grid has {len(grid)} nodes")
    return Control(GridFunction(grid, np.stack(cols, axis=1)))


# each record's keys are its constructor's parameters
_BUILDERS = {
    "model": {
        "rough_stein_stein": RoughSteinStein,
        "rough_bergomi": RoughBergomi,
        "rough_heston": RoughHeston,
        "multi_rough_bergomi": MultiRoughBergomi,
    },
    "kernel": {
        "constant": kernels.constant,
        "power_law": kernels.power_law,
        "raw_power": kernels.raw_power,
        "gamma": kernels.gamma_kernel,
    },
    "regime": ScalingRegime,
    "grid": TimeGrid,
}

# the one record value that is not a number: the name of its constructor
_NOT_NUMBERS = ("variant", "kind")


def _numbers(at: str, value):
    """A record value as its constructor takes it: a number or a (nested) tuple of
    numbers.  Anything else, a bool or a string say, is a ConfigError naming ``at``."""
    if isinstance(value, list):
        return tuple(_numbers(f"{at}/{i}", v) for i, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"bad record at {at}: {value!r} is not a number")
    return value


def _record(key: str, rec):
    """The library object the config's ``key`` record builds."""
    if not isinstance(rec, dict):
        raise ConfigError(f"bad record at {key}: {rec!r} is not an object")
    params = {k: v if k in _NOT_NUMBERS else _numbers(f"{key}/{k}", v) for k, v in rec.items()}
    build = _BUILDERS[key]
    if isinstance(build, dict):  # a table: the record's variant or kind names the constructor
        name = "variant" if key == "model" else "kind"
        choice = params.pop(name, None)
        if choice not in list(build):
            raise ConfigError(f"bad record at {key}/{name}: {choice!r} not in {', '.join(build)}")
        build = build[choice]
    return _checked(key, build, **params)


def _records(cfg: dict, *keys: str) -> list:
    """The model, regime, grid and kernel records of ``cfg`` named by ``keys``, built in order."""
    return [_record(key, cfg[key]) for key in keys]


def _given(rec: dict, *keys: str) -> dict:
    """The ``keys`` the config gives; one left out keeps the library's default."""
    return {k: rec[k] for k in keys if k in rec}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(cfg: dict, seed, deterministic: bool) -> dict:
    """The provenance record of an output: config hash, seed, [timestamp,] version."""
    meta = {"config_hash": config_hash(cfg), "seed": seed}
    if not deterministic:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    meta["version"] = __version__
    return meta


@contextmanager
def _open(path: str | None, mode: str = "r"):
    """Open a file other than the config, or stdout for no ``path``; an OS error on it
    is a ConfigError naming it.  A regular or new file (a symlink's target) is written
    as ``<file>.<pid>.part``, which replaces it only when the block succeeds, so a
    failed run leaves an earlier output as it was; a device or pipe is written in place.
    """
    if path is None:
        yield sys.stdout
        return
    verb = "read" if "r" in mode else "write"
    real = os.path.realpath(path)
    staged = verb == "write" and (os.path.isfile(real) or not os.path.exists(real))
    part = f"{real}.{os.getpid()}.part" if staged else path
    try:
        with open(part, mode) as fh:
            if staged and os.path.exists(real):  # an earlier output: writable, and its mode kept
                open(real, "ab").close()
                os.chmod(part, os.stat(real).st_mode & 0o7777)
            yield fh
        if staged:
            os.replace(part, real)
    except OSError as exc:
        raise ConfigError(f"cannot {verb} {path}: {exc.strerror}") from exc
    finally:
        if staged:  # still there only if the block failed
            with suppress(OSError):
                os.remove(part)


_CSV_ROWS = 4096  # rows formatted per write: one block's text is alive at a time


def _emit(out, meta: dict, payload: dict | None = None, *, columns=(), table=(), **fields):
    """Write ``payload`` to ``out`` as JSON under ``_meta``, or else a CSV of ``table``.

    A CSV starts with ``meta`` and then ``fields`` as one ``# k=v ...`` line,
    then its ``columns`` and one line per row, written ``_CSV_ROWS`` rows at
    a time; every value is written as ``repr(float(x))``.
    """
    if payload is not None:
        out.write(json.dumps({"_meta": meta, **payload}, indent=2, sort_keys=True, default=float))
        out.write("\n")
        return
    header = " ".join(f"{k}={v}" for k, v in {**meta, **fields}.items())
    out.write(f"# {header}\n{','.join(columns)}\n")
    table = np.asarray(table, dtype=float)
    for lo in range(0, len(table), _CSV_ROWS):
        rows = table[lo : lo + _CSV_ROWS].tolist()
        out.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def _write_paths_binary(out, paths: np.ndarray):
    n_paths, n_nodes, d = paths.shape
    header = _BIN_MAGIC + np.asarray([n_paths, n_nodes, d], dtype="<u8").tobytes()
    assert len(header) == 32
    out.write(header)
    out.write(np.ascontiguousarray(paths, dtype="<f8").data)


def read_paths_binary(path: str) -> np.ndarray:
    """The (paths, nodes, components) array of a ``vd simulate`` ``.bin``.

    ConfigError naming the file if it cannot be read or is not a whole paths binary.
    """
    with _open(path, "rb") as fh:
        header, data = fh.read(32), fh.read()
    if len(header) < 32 or header[:8] != _BIN_MAGIC:
        raise ConfigError(f"{path} is not a paths binary (bad magic or short header)")
    dims = tuple(int(x) for x in np.frombuffer(header[8:], dtype="<u8"))
    if len(data) != 8 * math.prod(dims):
        raise ConfigError(f"{path} is truncated: shape {dims} needs {8 * math.prod(dims)} "
                          f"data bytes, it holds {len(data)}")
    return np.frombuffer(data, dtype="<f8").reshape(dims)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_kernels(args) -> int:
    cfg = _load_config(args.config, "kernels")
    (kernel,) = _records(cfg, "kernel")
    rep = kernels.check_regularity(
        kernel, cfg["gamma_claim"], cfg["h_grid"], **_given(cfg, "horizon")
    )
    payload = {
        "gamma_claim": rep.gamma_claim,
        "fitted_slope": rep.fitted_slope,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
        "h_values": list(rep.h_values),
        "functional": list(rep.functional),
    }
    with _open(args.out, "w") as out:
        _emit(out, _meta(cfg, None, args.deterministic), payload)
    return 0


def _cmd_limit(args) -> int:
    from .rate_functions import regenerate_pair

    cfg = _load_config(args.config, "limit")
    model, grid = _records(cfg, "model", "grid")
    ctrl = _control(grid, **cfg["control"])
    family = cfg["family"]
    phi, vphi, rep = regenerate_pair(
        model, ctrl, frozen=family == "mdp", tail=family == "tail", **_given(cfg, "branch_policy")
    )
    with _open(args.out, "w") as out:
        _emit(
            out,
            _meta(cfg, None, args.deterministic),
            columns=["t", "phi", "vphi"],
            table=np.column_stack([grid.nodes, phi.values, vphi.values]),
            family=family,
            branch=rep.branch_taken,
            picard_iterations=rep.picard_iterations,
            residual=rep.residual,
        )
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, "simulate")
    model, regime, grid = _records(cfg, "model", "regime", "grid")
    binary = args.out is not None and args.out.endswith(".bin")
    # opened before the run: an output that cannot be written fails before any draw
    with _open(args.out, "wb" if binary else "w") as out:
        ens = simulate(model, regime, grid, args.paths, args.seed, threads=args.threads)
        if binary:
            _write_paths_binary(out, ens.paths)
            return 0
        n_paths, n_nodes, d = ens.paths.shape
        _emit(
            out,
            _meta(cfg, args.seed, args.deterministic),
            columns=["path", "t"] + [f"c{j}" for j in range(d)],
            table=np.column_stack(
                [
                    np.repeat(np.arange(n_paths), n_nodes),
                    np.tile(grid.nodes, n_paths),
                    ens.paths.reshape(-1, d),
                ]
            ),
            regularized=ens.bump,
            paths=f"0..{n_paths - 1}",
        )
    return 0


def _read_path_csv(path: str):
    """Grid and (phi, vphi) columns; only lines before the first numeric row may be headers."""
    rows = []
    with _open(path) as fh:
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


def _cmd_rate_eval(args) -> int:
    from .rate_functions import (
        heston_rate,
        ldp_rate_pair,
        mdp_rate_pair,
        tail_rate_heston,
        tail_rate_steinstein,
    )

    cfg = _load_config(args.model, "rate eval")
    (model,) = _records(cfg, "model")
    grid, phi_vals, vphi_vals = _read_path_csv(args.path)
    pair = (model, GridFunction(grid, phi_vals), GridFunction(grid, vphi_vals))
    family = cfg.get("family", "small_time")
    if family == "small_time_mdp":
        res = mdp_rate_pair(*pair)
    elif isinstance(model, RoughHeston):  # the delta-regularized rates
        rate = heston_rate if family == "small_time" else tail_rate_heston
        res = rate(*pair, **_given(cfg, "delta"))
    else:
        res = (ldp_rate_pair if family == "small_time" else tail_rate_steinstein)(*pair)
    payload = {
        "value": res.value,
        "regularization_delta": res.regularization_delta,
        "richardson_value": res.richardson_value,
    }
    with _open(args.out, "w") as out:
        _emit(out, _meta(cfg, None, args.deterministic), payload)
    return 0


def _cmd_rate_minimize(args) -> int:
    from .rate_functions import ldp_rate_terminal

    cfg = _load_config(args.model, "rate minimize")
    (model,) = _records(cfg, "model")
    key, _, val = args.terminal.partition("=")
    if key not in ("x", "y") or not val:
        raise ConfigError("--terminal must look like x=<value> or y=<value>")
    try:
        target = float(val)
    except ValueError:
        target = math.nan
    if not math.isfinite(target):
        raise ConfigError(f"--terminal value must be a finite number, got {val!r}")
    # a grid's fields, horizon and n_steps, are the solver's own; without one it keeps its default
    grid = asdict(_records(cfg, "grid")[0]) if "grid" in cfg else {}
    res = ldp_rate_terminal(model, target, component=key, **grid)
    payload = {
        "value": res.value,
        "converged": res.diagnostics["converged"],
        "constraint_violation": res.constraint_violation,
        "iterations": res.iterations,
        "starts": res.diagnostics["starts"],
    }
    with _open(args.out, "w") as out:
        _emit(out, _meta(cfg, None, args.deterministic), payload)
    return 0


# the SmilePoint field of each CSV column named otherwise; a None is written as nan
_SMILE_FIELDS = {"t": "maturity", "k": "log_moneyness", "k_attained": "attained"}


def _cmd_smile(args) -> int:
    from .implied_vol import mc_smile, smile_ldp, smile_mdp, smile_tail

    if args.threads is not None and args.regime != "mc":
        raise ConfigError(f"--threads applies to --regime mc only, not {args.regime}")
    cfg = _load_config(args.model, "smile")
    (model,) = _records(cfg, "model")
    blk = cfg["smile"]
    t, strikes, seed = blk["maturity"], blk["strikes"], blk.get("seed", 0)
    steps = _given(blk, "n_steps")
    if args.regime == "ldp":
        points = [smile_ldp(model, k, t, **steps) for k in strikes]
    elif args.regime == "mdp":
        beta = blk.get("beta", 0.5 * model.min_hurst)
        points = [smile_mdp(model, k, t, beta) for k in strikes]
    elif args.regime == "tail":
        points = [smile_tail(model, t, k, **steps) for k in strikes]
    else:
        paths = blk.get("paths", 100_000)
        points = mc_smile(model, t, strikes, paths, seed, threads=args.threads, **steps)
    columns = ["t", "k", "sigma_hat", "stderr"]
    fields = {"regime": args.regime, "source": points[0].source if points else "n/a"}
    if args.regime in ("ldp", "tail"):  # where the rate infimum sits on the ray
        columns.append("k_attained")
    if args.regime == "mc":  # the F - 1 control of each point, the run's Cholesky bump
        columns += ["control_coef", "variance_ratio"]
        fields["regularized"] = points[0].bump if points else 0.0
    table = [[getattr(p, _SMILE_FIELDS.get(c, c)) for c in columns] for p in points]
    with _open(args.out, "w") as out:
        _emit(out, _meta(cfg, seed, args.deterministic), columns=columns, table=table, **fields)
    return 0


def _cmd_verify(args) -> int:
    from .mc_verify import DeviationExperiment, EventSpec, build_is_control, ldp_slope

    cfg = _load_config(args.experiment, "verify")
    model, grid = _records(cfg, "model", "grid")
    event = EventSpec(**cfg["event"])
    exp = _checked(
        "epsilons/regime/beta",
        DeviationExperiment,
        model=model,
        event=event,
        epsilons=tuple(cfg["epsilons"]),
        regime_kind=cfg["regime"],
        n_paths=cfg["paths"],
        seed=cfg["seed"],
        grid=grid,
        **_given(cfg, "beta", "reference_rate"),
    )
    if cfg.get("importance_sampling"):
        exp.is_control = build_is_control(model, event, grid, cfg["regime"])
    rep = ldp_slope(exp)
    payload = {
        "epsilons": list(rep.epsilons),
        "p_hats": list(rep.p_hats),
        "stderrs": list(rep.stderrs),
        "hit_counts": list(rep.hit_counts),
        "s_values": list(rep.s_values),
        "f_values": list(rep.f_values),
        "regularized": list(rep.bumps),
        "normals_per_path": list(rep.normals_per_path),
        "intercept": rep.intercept,
        "slope": rep.slope,
        "reference_rate": rep.reference_rate,
        "relative_gap": rep.relative_gap,
        "used_importance_sampling": rep.used_importance_sampling,
        "ess": rep.ess,  # tuples serialise as arrays; None without importance sampling
        "max_weight_shares": rep.max_weight_shares,
        "second_moment_decays": rep.second_moment_decays,
    }
    with _open(args.out, "w") as out:
        _emit(out, _meta(cfg, cfg["seed"], args.deterministic), payload)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # every flag sits on the subcommands that read it, so a misplaced one is
    # rejected (exit 2) instead of parsed and dropped
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="suppress timestamps for byte-identical reruns",
    )
    threaded = argparse.ArgumentParser(add_help=False, parents=[common])
    threaded.add_argument("--threads", type=int, default=None, help="worker threads")
    ap = argparse.ArgumentParser(prog="vd", description="stochastic Volterra deviations toolkit")
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

    sim = sub.add_parser("simulate", help="simulate the rescaled system", parents=[threaded])
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
    re_.set_defaults(fn=_cmd_rate_eval)
    rm = rsub.add_parser("minimize", parents=[common])
    rm.add_argument("--model", required=True)
    rm.add_argument("--terminal", required=True, help="x=<value> or y=<value>")
    rm.add_argument("--out")
    rm.set_defaults(fn=_cmd_rate_minimize)

    smile = sub.add_parser("smile", help="implied-volatility points", parents=[threaded])
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
