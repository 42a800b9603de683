"""Command-line front end.

Subcommands: ``eigen``, ``cone``, ``fm``, ``solve``, ``regularize`` and
``verify-suite``.  Every run reads one JSON config, writes its artifacts
into the output directory together with a manifest carrying the config
and a content hash of it, and exits with 0 on success, 2 on config parse
and output errors and otherwise with the ``exit_code`` of the raised
library error: 3 on validation errors (an unread key among them), 4 on
solver or pipeline failures and 5 on internal invariant violations.
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
from .errors import ConfigError, DimensionMismatchError, MHessianError
from .fm import fm_value, fm_via_determinant
from .grids import BALL, TORUS, GridDomain, GridFunction, MetricField
from .hermitian import HermitianMatrix, MetricMatrix, relative_eigenvalues
from .multiindex import multi_indices
from .regularize import ApproximationSchedule, global_regularize, \
    local_regularize, upper_smooth_sequence, verify_monotone_convergence
from .serialize import gridfunction_to_binary, gridfunction_to_csv, \
    write_csv_rows, write_json
from .solver import RightHandSide, SolverConfig, continuity_path, \
    solve_torus
from .suite import verify_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 5


# ---------------------------------------------------------------------------
# config format

_REQUIRED = object()


def _is_number(value, kind=float) -> bool:
    """Whether ``kind(value)`` reads a JSON value exactly: a finite number
    (not NaN), not a bool, and for int an integral one, not 1.9."""
    return (type(value) in (int, float) and abs(value) <= sys.float_info.max
            and (kind is float or value % 1 == 0))


class ConfigTable(dict):
    """A JSON object of a config, read through its typed accessors.

    Each accessor marks its key as read.  A repeated, missing, mistyped or
    unread (see ``reject_unread``) key is a ConfigError naming its path.
    """

    def __init__(self, pairs=()):
        # also json.loads' object_pairs_hook: dict() keeps a repeated key
        super().__init__(pairs)
        if len(self) < len(pairs):
            keys = [key for key, _ in pairs]
            raise ConfigError("duplicate config key "
                              f"{next(k for k in keys if keys.count(k) > 1)!r}")
        self._path = ""
        self._read = set()

    def _get(self, key, default, expected, valid):
        """The value at ``key``, or ``default`` when the key is left out and
        not required; a value ``valid`` rejects is a ConfigError."""
        self._read.add(key)
        if key not in self:
            if default is _REQUIRED:
                raise ConfigError(f"missing config key {self._path + key!r}")
            return default
        value = self[key]
        if not valid(value):
            raise ConfigError(f"config key {self._path + key!r} must be "
                              f"{expected}, got {value!r}")
        return value

    def number(self, key, kind, default=_REQUIRED):
        """``kind(value)`` for ``kind`` int or float (see ``_is_number``)."""
        return kind(self._get(key, default, kind.__name__,
                              lambda value: _is_number(value, kind)))

    def numbers(self, kinds: dict) -> dict:
        """``number(key, kind)`` for each key of ``kinds`` the table sets."""
        return {key: self.number(key, kind) for key, kind in kinds.items()
                if key in self}

    def choice(self, key, options, default=_REQUIRED):
        """The string at ``key``, one of ``options``."""
        return self._get(key, default, f"one of {list(options)}",
                         lambda value: isinstance(value, str)
                         and value in options)

    def table(self, key, default=_REQUIRED) -> "ConfigTable":
        """The nested JSON object at ``key``."""
        value = self._get(key, default, "a JSON object",
                          lambda value: isinstance(value, ConfigTable))
        value._path = f"{self._path}{key}."
        return value

    def matrix(self, key) -> HermitianMatrix:
        """The matrix of the table ``{"n": int, "re": rows, "im": rows}`` at
        ``key``, each of n rows of n numbers; "im" is zero when left out."""
        table = self.table(key)
        n = table.number("n", int)

        def rows(part):
            return np.asarray(table._get(
                part, _REQUIRED, f"{n} rows of {n} finite numbers",
                lambda value: isinstance(value, list) and len(value) == n >= 1
                and all(isinstance(row, list) and len(row) == n
                        and all(map(_is_number, row)) for row in value)),
                dtype=float)

        re = rows("re")
        im = rows("im") if "im" in table else np.zeros((n, n))
        return HermitianMatrix(re + 1j * im)

    def grid(self, key) -> GridDomain:
        """The grid of the table at ``key``; its radius is optional."""
        table = self.table(key)
        try:
            return GridDomain(
                kind=table.choice("kind", (BALL, TORUS)),
                n=table.number("n", int),
                points_per_axis=table.number("points_per_axis", int),
                **table.numbers({"radius": float}))
        except DimensionMismatchError as exc:
            raise ConfigError(f"invalid grid config: {exc}") from exc

    def reject_unread(self) -> None:
        """A ConfigError naming a key that no accessor read, here or in a
        nested table read; a command calls this after its last read."""
        for key, value in self.items():
            if key not in self._read:
                raise ConfigError(f"unknown config key {self._path + key!r}")
            if isinstance(value, ConfigTable):
                value.reject_unread()


def _field_max_re(coords, *, offset=0.0):
    if coords.shape[1] < 4:
        raise ConfigError("max_re needs complex dimension >= 2")
    return np.maximum(coords[:, 0], coords[:, 2]) + offset


def _field_cos_wave(coords, *, amplitude=1.0, offset=0.0, axis=0):
    if not 0 <= axis < coords.shape[1]:
        raise ConfigError(f"cos_wave axis {axis} outside "
                          f"0..{coords.shape[1] - 1}")
    return amplitude * np.cos(2.0 * np.pi * coords[:, axis]) + offset


# each field maps node coordinates (K, 2n) to values; its keyword-only
# parameters are its config keys, each of the type of its default
FIELD_KINDS = {
    "constant": lambda coords, *, value=0.0: np.full(coords.shape[0], value),
    "squared_norm": lambda coords, *, scale=1.0, offset=0.0: (
        scale * (coords ** 2).sum(axis=-1) + offset),
    "quadratic_plus_exp": lambda coords, *, scale=0.05, offset=0.0: (
        (coords ** 2).sum(axis=-1) + scale * np.exp(coords[:, 0]) + offset),
    "max_re": _field_max_re,
    "cos_wave": _field_cos_wave,
}


def field_from_config(cfg: ConfigTable):
    """The field of the table ``cfg``, over values read once."""
    field = FIELD_KINDS[cfg.choice("kind", FIELD_KINDS)]
    values = {key: cfg.number(key, type(default), default)
              for key, default in field.__kwdefaults__.items()}
    return lambda coords: field(coords, **values)


def metric_from_config(config: ConfigTable, key: str, n: int) -> MetricMatrix:
    return MetricMatrix(config.matrix(key) if key in config
                        else HermitianMatrix.identity(n))


def solver_config_from(config: ConfigTable) -> SolverConfig:
    """The "solver" table's settings, SolverConfig's defaults elsewhere."""
    return SolverConfig(**config.table("solver", ConfigTable()).numbers({
        "tolerance": float, "max_iterations": int,
        "cone_floor": float, "damping_min_step": float}))


def rhs_from_config(cfg: ConfigTable, m: int):
    """The right-hand side of the table ``cfg``, as a function of the
    reference grid function that ``penalized_distance`` penalizes."""
    kind = cfg.choice("kind", ("manufactured_quadratic", "scaled_exponential",
                               "penalized_distance"))
    if kind == "penalized_distance":
        beta = cfg.number("beta", float)
        return lambda ref: RightHandSide.penalized_distance(beta, ref)
    rhs = (RightHandSide.manufactured_quadratic(m)
           if kind == "manufactured_quadratic"
           else RightHandSide.scaled_exponential(
               field_from_config(cfg.table("amplitude")),
               field_from_config(cfg.table("shift"))))
    return lambda ref: rhs


# ---------------------------------------------------------------------------
# commands: each reads its whole config, then rejects the keys it did not
# read, before it computes or writes anything

def run_eigen(config: ConfigTable, out: Path, rng) -> dict:
    T = config.matrix("T")
    omega = metric_from_config(config, "omega", T.dim)
    config.reject_unread()
    spec = relative_eigenvalues(T, omega)
    write_csv_rows(out / "eigenvalues.csv", ["index", "lambda"],
                   [(k, v) for k, v in enumerate(spec.lambdas)])
    write_json({"lambdas": spec.lambdas.tolist(),
                "trace": float(spec.lambdas.sum())}, out / "report.json")
    return {"eigenvalues.csv": ["hermitian", "relative_eigenvalues"],
            "report.json": ["hermitian", "relative_eigenvalues"]}


def run_cone(config: ConfigTable, out: Path, rng) -> dict:
    T = config.matrix("T")
    omega = metric_from_config(config, "omega", T.dim)
    m = config.number("m", int)
    config.reject_unread()
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
    T = config.matrix("T")
    omega = metric_from_config(config, "omega", T.dim)
    m = config.number("m", int)
    config.reject_unread()
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
    problem = config.choice("problem", ("dirichlet", "torus"), "dirichlet")
    domain = config.grid("grid")
    m = config.number("m", int)
    omega = metric_from_config(config, "metric", domain.n)
    cfg = solver_config_from(config)
    rhs = rhs_from_config(config.table("rhs"), m)
    if problem == "dirichlet":
        field = field_from_config(config.table("boundary"))
        t_steps = config.table("solver", ConfigTable()).numbers(
            {"t_steps": int})
    else:
        chi = config.matrix("chi")
        field = field_from_config(config.table("reference"))
    config.reject_unread()
    g = MetricField(domain=domain, constant=omega)
    f = GridFunction.from_callable(domain, field)
    if problem == "dirichlet":
        report = continuity_path(f, rhs(f), g, m, cfg, **t_steps)
    else:
        report = solve_torus(chi, rhs(f), g, m, cfg)
    write_json(report.to_json(), out / "report.json")
    gridfunction_to_csv(report.solution, out / "solution.csv")
    gridfunction_to_binary(report.solution, out / "solution.bin")
    op = "solve_torus" if problem == "torus" else "continuity_path"
    return {name: ["solver", op]
            for name in ("report.json", "solution.csv", "solution.bin")}


def run_regularize(config: ConfigTable, out: Path, rng) -> dict:
    mode = config.choice("mode", ("local", "global"), "local")
    domain = config.grid("grid")
    m = config.number("m", int)
    omega = metric_from_config(config, "metric", domain.n)
    field = field_from_config(config.table("target"))
    cfg = solver_config_from(config)
    sched_cfg = config.table("schedule", ConfigTable())
    count = sched_cfg.number("count", int, 6)
    smooth = sched_cfg.choice("approximants", ("smooth",), None) == "smooth"
    if not smooth:
        eta0 = sched_cfg.number("eta_start", float, 0.5)
        decay = sched_cfg.number("eta_decay", float, 0.25)
    betas = sched_cfg.numbers({"beta_start": float, "growth": float})
    iterates = config.numbers({"iterates": int})
    chi = config.matrix("chi") if mode == "global" else None
    config.reject_unread()
    g = MetricField(domain=domain, constant=omega)
    target = GridFunction.from_callable(domain, field)
    if smooth:
        fs = upper_smooth_sequence(target, count)
    else:
        fs = [GridFunction(domain, target.flat + eta0 * decay ** k)
              for k in range(count)]
    schedule = ApproximationSchedule.geometric(fs, **betas)
    if mode == "local":
        result = local_regularize(target, g, m, schedule, cfg, **iterates)
    else:
        result = global_regularize(target, chi, g, m, schedule, cfg,
                                   **iterates)
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
    config.reject_unread()
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
    rng = np.random.default_rng(args.seed)
    try:
        out.mkdir(parents=True, exist_ok=True)
        config, config_hash = ConfigTable(), None
        if args.config:
            try:
                raw = Path(args.config).read_bytes()
                config = json.loads(raw, object_pairs_hook=ConfigTable)
            except (OSError, RecursionError, UnicodeDecodeError,
                    json.JSONDecodeError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            config_hash = hashlib.sha256(raw).hexdigest()
        if not isinstance(config, ConfigTable):
            raise ConfigError("config must be a JSON object, got "
                              f"{type(config).__name__}")
        grid = config.get("grid")  # not table(): some commands read no grid
        if args.grid_override is not None and isinstance(grid, ConfigTable):
            grid["points_per_axis"] = args.grid_override
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
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyError:
        # config lookups raise ConfigError, so this is a library bug
        traceback.print_exc()
        return EXIT_INVARIANT
    if not args.quiet:
        print(f"{args.command}: artifacts written to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
