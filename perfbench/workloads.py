"""The benchmark's workloads: seeded inputs, one op each, and its check.

Every workload drives the library through its public entry points only and
looks each one up on its module at call time (``solver.solve_dirichlet``,
not a name bound at import), so the traced run sees the same calls.
``setup`` builds the inputs from the seed, ``op`` is the timed unit of work
and ``check`` returns the list of problems with one op's output (empty when
the output is correct).

``speed_exponent`` is how strongly a workload's op time follows the
probe of ``reference.py`` when the host gets busier or quieter: the slope
of log op wall time against log mean probe time during the op, fitted over
two sets of 25 s runs per workload (five and ten runs, 60 to 1000 ops) on
a 2-vCPU Xeon virtual machine, averaged weighting each set by its op count
and rounded to a quarter.  Ops are rescaled to the reference
speed with it (``run.rescaled``).  Sparse factorization slows down about
half as much as the probe, the interpreted pointwise layer and the
memory-bound torus grid more.
"""

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from mhessian import cli, fm, grids, hermitian, regularize, solver

ROOT = Path(__file__).resolve().parent.parent


def _run_cli(argv):
    """``mhessian.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


class BallC2Dirichlet:
    """Seeded quadratic Dirichlet problem on the C^2 ball, m = 1 and m = 2.

    u*(z) = z^H A z + Re(b . z) with A = I + a seeded Hermitian perturbation
    of spectral radius at most 0.35, and G = F_m[A] exp(t - u*), so u* solves
    the discrete equation exactly (the stencil is exact on quadratics).
    With radius near 0.5 and m = 1 the library's own initial iterate (the
    subsolution seed with Dirichlet data restored on the boundary) can
    leave the cone and the solve raises ConeEscape; radius 0.35 keeps every
    seed clear of that.
    """

    name = "ball_c2_dirichlet"
    speed_exponent = 0.75  # fitted slopes 0.54 and 0.70
    exact_tol = 1e-8

    def setup(self, seed, smoke, work):
        rng = np.random.default_rng(seed)
        n = 2
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        X = 0.5 * (X + X.conj().T)
        X *= rng.uniform(0.1, 0.35) / np.abs(np.linalg.eigvalsh(X)).max()
        A = np.eye(n) + X
        b = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))

        def ustar(c):
            z = c[:, 0::2] + 1j * c[:, 1::2]
            return (np.einsum("ki,ij,kj->k", z.conj(), A, z).real
                    + (z @ b).real)

        domain = grids.GridDomain.ball(n, radius=1.0,
                                       points_per_axis=7 if smoke else 13)
        domain.interior_mask  # grid construction belongs to set-up
        g = grids.MetricField.flat(domain)
        f = grids.GridFunction.from_callable(domain, ustar)
        form = hermitian.HermitianMatrix(A)
        metric = hermitian.MetricMatrix.identity(n)
        rhs = {}
        for m in (1, 2):
            value = fm.fm_value(form, metric, m).value
            rhs[m] = solver.RightHandSide.scaled_exponential(
                lambda c, v=value: np.full(c.shape[0], v), ustar)
        return {"f": f, "g": g, "rhs": rhs, "cfg": solver.SolverConfig()}

    def op(self, state):
        return {m: solver.solve_dirichlet(state["f"], state["rhs"][m],
                                          state["g"], m, state["cfg"])
                for m in (1, 2)}

    def check(self, state, reports):
        problems = []
        f = state["f"]
        used = ~f.domain.exterior_mask
        for m, report in reports.items():
            if not report.final_residual <= state["cfg"].tolerance:
                problems.append(f"m={m}: residual {report.final_residual:.3e}"
                                f" above tolerance")
            err = float(np.abs(report.solution.flat[used] - f.flat[used]).max())
            if not err <= self.exact_tol:
                problems.append(f"m={m}: max |u - u*| = {err:.3e} "
                                f"> {self.exact_tol:g}")
        return problems


class TorusC2Global:
    """``global_regularize`` on the criterion-15 C^2 torus inputs.

    phi = -2.6 + 0.04 sum_p cos(2 pi (x_p + theta_p)) with seeded phases,
    chi = I, approximants phi + eta for the criterion-15 eta schedule, beta
    from 50 growing by 2, three iterates, on 11 points per axis (11^4 =
    14641 nodes): an op of about 5 s lets a run time several ops, where 13
    points per axis take about 13 s an op, and 9 points per axis make one
    op take minutes (187 s for seed 1).  The phases are whole multiples of
    the grid spacing, so every seed's target is a translate of criterion
    15's on the grid and costs the same work: off-grid phases make most
    Jacobians fail Jacobi-BiCGSTAB and fall back to ILU, which takes the op
    from about 10 s to 40-70 s depending on the seed.
    """

    name = "torus_c2_global"
    speed_exponent = 1.5  # fitted slopes 1.75 and 1.39
    etas = (0.5, 0.2, 0.05, 0.0125, 0.003, 0.001)

    def setup(self, seed, smoke, work):
        rng = np.random.default_rng(seed)
        n = 2
        domain = grids.GridDomain.torus(n, points_per_axis=5 if smoke else 11)
        c = domain.coords
        theta = rng.integers(0, domain.points_per_axis, size=n) * domain.spacing
        wave = sum(np.cos(2 * np.pi * (c[:, 2 * p] + theta[p]))
                   for p in range(n))
        phi = grids.GridFunction(domain, -2.6 + 0.04 * wave)
        fs = [grids.GridFunction(domain, phi.flat + eta) for eta in self.etas]
        schedule = regularize.ApproximationSchedule.geometric(
            fs, beta_start=50.0, growth=2.0)
        return {"phi": phi, "chi": hermitian.HermitianMatrix.identity(n),
                "g": grids.MetricField.flat(domain), "m": 2,
                "schedule": schedule, "cfg": solver.SolverConfig()}

    def op(self, state):
        return regularize.global_regularize(
            state["phi"], state["chi"], state["g"], state["m"],
            state["schedule"], state["cfg"], iterates=3)

    def check(self, state, result):
        problems = []
        for j, gaps in result.diagnostics["sandwich"].items():
            if not (gaps["first_gap"] >= -1e-8 and gaps["middle_slack"] > 0.0
                    and gaps["third_gap"] <= 1e-8):
                problems.append(f"index {j}: sandwich violated {gaps}")
        if not result.monotone_gap <= 1e-8:
            problems.append(f"monotone gap {result.monotone_gap:.3e} > 1e-8")
        if not all(mg > 0 for mg in result.cone_margins):
            problems.append(f"cone margins {result.cone_margins} not all > 0")
        if not regularize.verify_monotone_convergence(result,
                                                      state["phi"]).passed:
            problems.append("verify_monotone_convergence did not pass")
        return problems


def _artifact_hashes(directory):
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes())
            .hexdigest()
            for p in sorted(directory.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class BallC1Cli:
    """The shipped ``configs/*.json`` through ``mhessian.cli.main``.

    The subcommand is the config name's first word (``cone_example.json``
    runs ``cone``).  Each op writes into a fresh directory; every artifact
    except ``manifest.json``, which names that directory, must be
    byte-identical to the first op's.
    """

    name = "ball_c1_cli"
    speed_exponent = 1.0  # fitted slopes 1.07 and 1.15

    def setup(self, seed, smoke, work):
        configs = sorted((ROOT / "configs").glob("*.json"))
        if not configs:
            raise FileNotFoundError(f"no configs under {ROOT / 'configs'}")
        extra = ["--grid-override", "9"] if smoke else []
        runs = [(p.stem, [p.stem.split("_")[0], "--config", str(p),
                          "--seed", str(seed)] + extra) for p in configs]
        return {"runs": runs, "work": work, "count": 0, "reference": None}

    def op(self, state):
        state["count"] += 1
        out = state["work"] / f"op{state['count']}"
        codes = {}
        for stem, argv in state["runs"]:
            codes[stem] = _run_cli(argv + ["--out", str(out / stem)])
        return {"dir": out, "codes": codes}

    def check(self, state, output):
        problems = [f"{stem}: exit {code} {err}"
                    for stem, (code, err) in output["codes"].items() if code]
        hashes = _artifact_hashes(output["dir"])
        shutil.rmtree(output["dir"])
        if not hashes:
            problems.append("no artifacts written")
        if problems:
            return problems
        if state["reference"] is None:
            state["reference"] = hashes
        elif hashes != state["reference"]:
            differ = sorted(k for k in set(hashes) | set(state["reference"])
                            if hashes.get(k) != state["reference"].get(k))
            problems.append(f"artifacts differ from the first op: {differ}")
        return problems


class PointwiseSuite:
    """``mhessian verify-suite``: seeded scalar calls into the pointwise
    layer (hermitian, cones, fm, curvature).

    The suite's cost depends on its seeded corpus (one seed's op took 8 %
    longer than another's, interleaved in one process), so the ops of a
    run cycle through ``SUITE_SEEDS`` suite seeds derived from the run's
    seed, ``SUITE_SEEDS * seed + j``, and a run's median spans that many
    corpora instead of one.
    """

    name = "pointwise_suite"
    speed_exponent = 1.75  # fitted slopes 1.75 and 1.67
    SUITE_SEEDS = 8

    def setup(self, seed, smoke, work):
        argv = ["verify-suite", "--quiet"]
        if smoke:
            config = work / "suite.json"
            config.write_text(json.dumps({"corpus_size": 100}))
            argv += ["--config", str(config)]
        seeds = [self.SUITE_SEEDS * seed + j for j in range(self.SUITE_SEEDS)]
        return {"argv": argv, "seeds": seeds, "work": work, "count": 0}

    def op(self, state):
        seed = state["seeds"][state["count"] % len(state["seeds"])]
        state["count"] += 1
        out = state["work"] / f"op{state['count']}"
        code, err = _run_cli(state["argv"] + ["--seed", str(seed),
                                              "--out", str(out)])
        return {"dir": out, "code": code, "err": err}

    def check(self, state, output):
        problems = []
        if output["code"]:
            problems.append(f"exit {output['code']} {output['err']}")
        summary = output["dir"] / "suite_summary.csv"
        rows = []
        if summary.is_file():
            lines = summary.read_text().splitlines()[1:]
            rows = [line.split(",") for line in lines if line]
        shutil.rmtree(output["dir"], ignore_errors=True)
        if not rows:
            problems.append("suite_summary.csv missing or empty")
        for row in rows:
            if float(row[2]) != 0:
                problems.append(f"suite {row[0]}: {row[2]} failures")
        return problems


WORKLOADS = {w.name: w for w in (BallC2Dirichlet, TorusC2Global, BallC1Cli,
                                 PointwiseSuite)}
