"""Command-line front end.

Subcommands: ``eigen``, ``cone``, ``fm``, ``solve``, ``regularize`` and
``verify-suite``.  Every run reads one JSON config, writes its artifacts
into the output directory together with a manifest carrying the resolved
defaults and a content hash of the config, and exits with 0 on success,
2 on config parse errors and otherwise with the ``exit_code`` of the
raised library error: 3 on validation errors, 4 on solver or pipeline
failures and 5 on internal invariant violations.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .cones import is_m_semipositive, strong_positivity_oracle
from .errors import ConfigError, MHessianError
from .fm import fm_value, fm_via_determinant
from .grids import GridFunction, MetricField
from .hermitian import MetricMatrix, matrix_from_json, relative_eigenvalues
from .multiindex import multi_indices
from .regularize import ApproximationSchedule, global_regularize, \
    local_regularize, upper_smooth_sequence, verify_monotone_convergence
from .serialize import domain_from_config, gridfunction_to_binary, \
    gridfunction_to_csv, write_csv_rows, write_json
from .solver import RightHandSide, SolverConfig, continuity_path, \
    solve_torus
from .suite import verify_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 5


# ---------------------------------------------------------------------------
# config helpers

_REQUIRED = object()


class ConfigTable(dict):
    """A JSON object of a config.

    Looking up a missing key is a ConfigError, and so is a value that
    ``number`` or ``table`` cannot read as the type asked for.
    """

    def __missing__(self, key):
        raise ConfigError(f"missing config key {key!r}")

    def _value(self, key, default):
        return self[key] if default is _REQUIRED else self.get(key, default)

    def number(self, key, kind, default=_REQUIRED):
        """``kind(value)`` for ``kind`` int or float.

        The value must be a JSON number, not a bool, and for int an
        integral one (2 or 2.0): int() would truncate 1.9 to 1.
        """
        value = self._value(key, default)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or kind is int and isinstance(value, float)
                and not value.is_integer()):
            raise ConfigError(f"config key {key!r} must be {kind.__name__}, "
                              f"got {value!r}")
        try:
            return kind(value)
        except OverflowError as exc:
            raise ConfigError(f"config key {key!r} must be {kind.__name__}, "
                              f"got {value!r}") from exc

    def table(self, key, default=_REQUIRED) -> "ConfigTable":
        """The nested JSON object at ``key``."""
        value = self._value(key, default)
        if not isinstance(value, ConfigTable):
            raise ConfigError(f"config key {key!r} must be a JSON object, "
                              f"got {value!r}")
        return value

    def numbers(self, kinds: dict) -> dict:
        """``number(key, kind)`` for each key of ``kinds`` the table sets."""
        return {key: self.number(key, kind) for key, kind in kinds.items()
                if key in self}


FIELD_KINDS = {}


def field_kind(name):
    def wrap(fn):
        FIELD_KINDS[name] = fn
        return fn
    return wrap


@field_kind("constant")
def _field_constant(cfg, coords):
    return np.full(coords.shape[0], cfg.number("value", float, 0.0))


@field_kind("squared_norm")
def _field_squared_norm(cfg, coords):
    scale = cfg.number("scale", float, 1.0)
    offset = cfg.number("offset", float, 0.0)
    return scale * (coords ** 2).sum(axis=-1) + offset


@field_kind("quadratic_plus_exp")
def _field_quadratic_plus_exp(cfg, coords):
    scale = cfg.number("scale", float, 0.05)
    offset = cfg.number("offset", float, 0.0)
    return (coords ** 2).sum(axis=-1) + scale * np.exp(coords[:, 0]) + offset


@field_kind("max_re")
def _field_max_re(cfg, coords):
    if coords.shape[1] < 4:
        raise ConfigError("max_re needs complex dimension >= 2")
    offset = cfg.number("offset", float, 0.0)
    return np.maximum(coords[:, 0], coords[:, 2]) + offset


@field_kind("cos_wave")
def _field_cos_wave(cfg, coords):
    amplitude = cfg.number("amplitude", float, 1.0)
    offset = cfg.number("offset", float, 0.0)
    axis = cfg.number("axis", int, 0)
    if not 0 <= axis < coords.shape[1]:
        raise ConfigError(f"cos_wave axis {axis} outside "
                          f"0..{coords.shape[1] - 1}")
    return amplitude * np.cos(2.0 * np.pi * coords[:, axis]) + offset


def field_from_config(cfg: ConfigTable):
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in FIELD_KINDS:
        raise ConfigError(f"unknown field kind {kind!r}; "
                          f"expected one of {sorted(FIELD_KINDS)}")
    return lambda coords: FIELD_KINDS[kind](cfg, coords)


def metric_from_config(config: ConfigTable, key: str, n: int) -> MetricMatrix:
    if config.get(key) is None:
        return MetricMatrix.identity(n)
    return MetricMatrix(matrix_from_json(config.table(key)))


def solver_settings(config: ConfigTable, kinds: dict) -> dict:
    """The keys of ``kinds`` the config sets, in its nested "solver" table
    or else flat; keys it leaves out keep the library's defaults."""
    nested = config.table("solver", ConfigTable())
    flat = {key: kind for key, kind in kinds.items() if key not in nested}
    return {**config.numbers(flat), **nested.numbers(kinds)}


def solver_config_from(config: ConfigTable) -> SolverConfig:
    """Solver settings, read from a nested "solver" table or flat keys."""
    return SolverConfig(**solver_settings(config, {
        "tolerance": float, "max_iterations": int,
        "cone_floor": float, "damping_min_step": float}))


def rhs_from_config(cfg: ConfigTable, m: int,
                    reference: GridFunction) -> RightHandSide:
    kind = cfg.get("kind")
    if kind == "manufactured_quadratic":
        return RightHandSide.manufactured_quadratic(m)
    if kind == "scaled_exponential":
        amplitude = field_from_config(cfg.table("amplitude"))
        shift = field_from_config(cfg.table("shift"))
        return RightHandSide.scaled_exponential(amplitude, shift)
    if kind == "penalized_distance":
        return RightHandSide.penalized_distance(cfg.number("beta", float),
                                                reference)
    raise ConfigError(f"unknown rhs kind {kind!r}")


# ---------------------------------------------------------------------------
# commands

def run_eigen(config: ConfigTable, out: Path, rng) -> dict:
    T = matrix_from_json(config.table("T"))
    omega = metric_from_config(config, "omega", T.dim)
    spec = relative_eigenvalues(T, omega)
    write_csv_rows(out / "eigenvalues.csv", ["index", "lambda"],
                   [(k, v) for k, v in enumerate(spec.lambdas)])
    write_json({"lambdas": spec.lambdas.tolist(),
                "trace": float(spec.lambdas.sum())}, out / "report.json")
    return {"eigenvalues.csv": ["hermitian", "relative_eigenvalues"],
            "report.json": ["hermitian", "relative_eigenvalues"]}


def run_cone(config: ConfigTable, out: Path, rng) -> dict:
    T = matrix_from_json(config.table("T"))
    omega = metric_from_config(config, "omega", T.dim)
    m = config.number("m", int)
    verdict = is_m_semipositive(T, omega, m)
    oracle = strong_positivity_oracle(T, omega, m)
    data = {"verdict": verdict.to_json(), "oracle": oracle.to_json(),
            "agreement": verdict.member == oracle.member}
    write_json(data, out / "report.json")
    write_csv_rows(out / "cone.csv", ["member", "margin", "witness"],
                   [(verdict.member, verdict.margin,
                     " ".join(map(str, verdict.witness)))])
    return {"report.json": ["cones", "is_m_semipositive"],
            "cone.csv": ["cones", "strong_positivity_oracle"]}


def run_fm(config: ConfigTable, out: Path, rng) -> dict:
    T = matrix_from_json(config.table("T"))
    omega = metric_from_config(config, "omega", T.dim)
    m = config.number("m", int)
    fv = fm_value(T, omega, m)
    det_route = fm_via_determinant(T, omega, m) if fv.value > 0 else None
    write_json({"value": fv.value, "msums": fv.msums.tolist(),
                "determinant_route": det_route}, out / "report.json")
    rows = [(k, "_".join(str(i + 1) for i in J), s)
            for k, (J, s) in enumerate(zip(multi_indices(T.dim, m), fv.msums))]
    write_csv_rows(out / "msums.csv", ["index", "multi_index", "sum"], rows)
    return {"report.json": ["fm", "fm_value"], "msums.csv": ["fm", "fm_value"]}


def run_solve(config: ConfigTable, out: Path, rng) -> dict:
    if "homotopy" in config:
        raise ConfigError("config key 'homotopy' is gone: every Dirichlet "
                          "solve is the homotopy path, and solver.t_steps: 1 "
                          "is the direct solve")
    problem = config.get("problem", "dirichlet")
    domain = domain_from_config(config.table("grid"))
    m = config.number("m", int)
    g = MetricField(domain=domain,
                    constant=metric_from_config(config, "metric", domain.n))
    cfg = solver_config_from(config)
    if problem == "dirichlet":
        boundary = GridFunction.from_callable(
            domain, field_from_config(config.table("boundary"))
        )
        rhs = rhs_from_config(config.table("rhs"), m, boundary)
        report = continuity_path(boundary, rhs, g, m, cfg,
                                 **solver_settings(config, {"t_steps": int}))
    elif problem == "torus":
        chi = matrix_from_json(config.table("chi"))
        reference = GridFunction.from_callable(
            domain, field_from_config(config.table("reference"))
        )
        rhs = rhs_from_config(config.table("rhs"), m, reference)
        report = solve_torus(chi, rhs, g, m, cfg)
    else:
        raise ConfigError(f"unknown problem {problem!r}")
    write_json(report.to_json(), out / "report.json")
    gridfunction_to_csv(report.solution, out / "solution.csv")
    gridfunction_to_binary(report.solution, out / "solution.bin")
    op = "solve_torus" if problem == "torus" else "continuity_path"
    return {name: ["solver", op]
            for name in ("report.json", "solution.csv", "solution.bin")}


def run_regularize(config: ConfigTable, out: Path, rng) -> dict:
    mode = config.get("mode", "local")
    domain = domain_from_config(config.table("grid"))
    m = config.number("m", int)
    g = MetricField(domain=domain,
                    constant=metric_from_config(config, "metric", domain.n))
    target = GridFunction.from_callable(
        domain, field_from_config(config.table("target"))
    )
    cfg = solver_config_from(config)
    sched_cfg = config.table("schedule", ConfigTable())
    count = sched_cfg.number("count", int, 6)
    if sched_cfg.get("approximants") == "smooth":
        fs = upper_smooth_sequence(target, count)
    else:
        eta0 = sched_cfg.number("eta_start", float, 0.5)
        decay = sched_cfg.number("eta_decay", float, 0.25)
        fs = [GridFunction(domain, target.flat + eta0 * decay ** k)
              for k in range(count)]
    schedule = ApproximationSchedule.geometric(
        fs, **sched_cfg.numbers({"beta_start": float, "growth": float}))
    iterates = config.numbers({"iterates": int})
    if mode == "local":
        result = local_regularize(target, g, m, schedule, cfg, **iterates)
    elif mode == "global":
        chi = matrix_from_json(config.table("chi"))
        result = global_regularize(target, chi, g, m, schedule, cfg,
                                   **iterates)
    else:
        raise ConfigError(f"unknown regularization mode {mode!r}")
    report = verify_monotone_convergence(result, target)
    summary = {
        "mode": mode,
        "indices": list(result.indices),
        "monotone_gap": result.monotone_gap,
        "lower_gap": result.lower_gap,
        "sup_deviation": list(result.sup_deviation),
        "cone_margins": list(result.cone_margins),
        "passed": report.passed,
    }
    write_json(summary, out / "summary.json")
    for k, u in enumerate(result.u_sequence):
        gridfunction_to_csv(u, out / f"iterate_{k:02d}.csv")
        gridfunction_to_binary(u, out / f"iterate_{k:02d}.bin")
    if not report.passed:
        raise MHessianError("regularization run failed its convergence report")
    op = "local_regularize" if mode == "local" else "global_regularize"
    artifacts = {"summary.json": ["regularize", op]}
    for k in range(len(result.u_sequence)):
        artifacts[f"iterate_{k:02d}.csv"] = ["regularize", op]
        artifacts[f"iterate_{k:02d}.bin"] = ["regularize", op]
    return artifacts


def run_verify_suite(config: ConfigTable, out: Path, rng) -> dict:
    corpus_size = config.number("corpus_size", int, 1000)
    if corpus_size < 0:
        raise ConfigError(f"config key 'corpus_size' must be >= 0, "
                          f"got {corpus_size}")
    rows = verify_suite(rng, corpus_size)
    write_csv_rows(out / "suite_summary.csv",
                   ["suite", "cases", "failures", "status"], rows)
    width = max(len(r[0]) for r in rows)
    for name, cases, failures, status in rows:
        print(f"{name:<{width}}  {cases:>6}  {failures:>3}  {status}")
    if any(r[2] for r in rows):
        raise MHessianError("verify-suite found property violations")
    return {"suite_summary.csv": ["suite", "verify_suite"]}


COMMANDS = {
    "eigen": run_eigen,
    "cone": run_cone,
    "fm": run_fm,
    "solve": run_solve,
    "regularize": run_regularize,
    "verify-suite": run_verify_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhessian",
        description="eigenvalue-sum cones, the F_m operator, grid solvers "
                    "and monotone smoothing pipelines",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=False, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized suites")
    parser.add_argument("--grid-override", type=int, default=None,
                        help="override points_per_axis in the config grid")
    parser.add_argument("--quiet", action="store_true",
                        help="print nothing on stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = ConfigTable()
    config_hash = None
    if args.config:
        try:
            raw = Path(args.config).read_bytes()
            config_hash = hashlib.sha256(raw).hexdigest()
            config = json.loads(raw, object_hook=ConfigTable)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    rng = np.random.default_rng(args.seed)
    try:
        if not isinstance(config, ConfigTable):
            raise ConfigError("config must be a JSON object, got "
                              f"{type(config).__name__}")
        if args.grid_override is not None and "grid" in config:
            config.table("grid")["points_per_axis"] = args.grid_override
        manifest = {
            "command": args.command,
            "config_path": args.config,
            "output_dir": str(out),
            "seed": args.seed,
            "config_sha256": config_hash,
            "resolved_config": config,
            "package_version": __version__,
        }
        write_json(manifest, out / "manifest.json")
        # --quiet keeps a command's own report (verify-suite's table) off
        # stdout too, not only the closing line below
        with (contextlib.redirect_stdout(io.StringIO()) if args.quiet
              else contextlib.nullcontext()):
            artifacts = COMMANDS[args.command](config, out, rng)
        manifest["artifacts"] = artifacts or {}
        write_json(manifest, out / "manifest.json")
    except ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MHessianError as exc:
        module = type(exc).__module__ + "." + type(exc).__name__
        report = {"error": str(exc), "type": module}
        write_json(report, out / "error.json")
        print(f"run failed: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyError:
        # config lookups raise ConfigError, so this is a library bug
        traceback.print_exc()
        return EXIT_INVARIANT
    if not args.quiet:
        print(f"{args.command}: artifacts written to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
