import inspect
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from mhessian import cli
from mhessian.cli import main
from mhessian.errors import ConfigError
from mhessian.grids import GridDomain, GridFunction
from mhessian.multiindex import subset_sums
from mhessian.serialize import (
    coordinate_headers,
    gridfunction_from_binary,
    gridfunction_to_binary,
    gridfunction_to_csv,
)
from mhessian.solver import SolverConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def grid_dump(kind=0, radius=1.0, points_per_axis=5, n=1):
    """Header plus zero payload of a binary grid dump on a C^n grid."""
    header = struct.pack("<4sIIIdI", b"MHGF", 1, n, kind, radius,
                         points_per_axis)
    return header + bytes(8 * points_per_axis ** (2 * n))


MALFORMED_DUMPS = {
    "bad_magic": b"NOPE" + bytes(64),
    "truncated_header": grid_dump()[:20],
    "unknown_kind": grid_dump(kind=7),
    "even_points_per_axis": grid_dump(points_per_axis=6),
    "nan_radius": grid_dump(radius=float("nan")),
}


def per_row_hypothesis_spectrum(rng, case, n, c, level):
    """verify-suite's former per-row rejection loop, as the reference for
    cli._hypothesis_spectrum, with the number of rows it drew."""
    draws = 0
    while True:
        lam = rng.uniform(-3.0, 3.0, size=n)
        draws += 1
        k = n - level if case in ("p0", "0q") else level
        if case in ("p0", "0q"):
            if k == 0 or subset_sums(lam + c, k).max() <= 0.0:
                return lam, draws
        elif k == 0 or subset_sums(lam - c, k).min() >= 0.0:
            return lam, draws


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSerialization:
    def test_binary_round_trip(self, tmp_path, rng):
        domain = GridDomain.ball(1, radius=0.8, points_per_axis=9)
        u = GridFunction(domain, rng.normal(size=domain.shape))
        path = tmp_path / "dump.bin"
        gridfunction_to_binary(u, path)
        v = gridfunction_from_binary(path)
        assert v.domain == domain
        np.testing.assert_array_equal(v.values, u.values)

    def test_binary_dump_helper_is_valid(self, tmp_path):
        path = tmp_path / "ok.bin"
        path.write_bytes(grid_dump())
        v = gridfunction_from_binary(path)
        assert v.domain == GridDomain.ball(1, radius=1.0, points_per_axis=5)

    @pytest.mark.parametrize("name", list(MALFORMED_DUMPS))
    def test_malformed_dump_raises_config_error(self, tmp_path, name):
        path = tmp_path / "bad.bin"
        path.write_bytes(MALFORMED_DUMPS[name])
        with pytest.raises(ConfigError):
            gridfunction_from_binary(path)

    def test_csv_headers_and_rows(self, tmp_path):
        domain = GridDomain.torus(1, points_per_axis=9)
        u = GridFunction.constant(domain, -1.5)
        path = tmp_path / "u.csv"
        gridfunction_to_csv(u, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,y1,value"
        assert len(lines) == 1 + domain.node_count

    def test_csv_matches_per_row_repr(self, tmp_path, rng):
        domain = GridDomain.torus(2, points_per_axis=5)
        values = rng.normal(size=domain.node_count)
        values[:4] = [-0.0, 5e-324, 1.0 / 3.0, 1e300]
        u = GridFunction(domain, values.reshape(domain.shape))
        path = tmp_path / "u.csv"
        gridfunction_to_csv(u, path)
        # the writer's former per-row loop, as the reference
        expected = "x1,y1,x2,y2,value\n"
        for k in range(domain.node_count):
            row = [repr(float(c)) for c in domain.coords[k]]
            expected += ",".join(row + [repr(float(values[k]))]) + "\n"
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("domain", [
        GridDomain.ball(1, radius=0.7, points_per_axis=33),
        GridDomain.ball(2, radius=0.7, points_per_axis=7),
        GridDomain.torus(2, points_per_axis=5),
    ], ids=["c1_ball", "c2_ball", "c2_torus"])
    def test_csv_from_axis_text_matches_per_row_repr(self, tmp_path, rng,
                                                      domain):
        # the writer formats each axis value once; the reference formats
        # every coordinate of every row
        values = rng.normal(size=domain.node_count)
        values[:4] = [-0.0, 5e-324, 1.0 / 3.0, 1e300]
        u = GridFunction(domain, values.reshape(domain.shape))
        path = tmp_path / "u.csv"
        gridfunction_to_csv(u, path)
        lines = [",".join(coordinate_headers(domain.n) + ["value"])]
        for coords, value in zip(domain.coords, values):
            lines.append(",".join([repr(float(c)) for c in coords]
                                  + [repr(float(value))]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestHypothesisSpectrum:
    @staticmethod
    def assert_matches_per_row_loop(seed, case, n, c, level):
        """Same spectrum and generator state as the per-row loop; returns
        the rows the loop drew."""
        mine, ref = (np.random.default_rng(seed) for _ in range(2))
        for rng in (mine, ref):
            rng.integers(2, 6)  # leaves a buffered 32-bit half, as in the suite
        lam = cli._hypothesis_spectrum(mine, case, n, c, level)
        expected, draws = per_row_hypothesis_spectrum(ref, case, n, c, level)
        assert np.array_equal(lam, expected)
        assert mine.bit_generator.state == ref.bit_generator.state
        return draws

    @pytest.mark.parametrize("case", ["p0", "0q", "nq", "pn"])
    def test_matches_per_row_loop(self, case):
        # every level from 0 to n, so both k = 0 draws are covered
        for n in range(2, 6):
            for level in range(n + 1):
                for seed, c in enumerate((0.2, 1.5)):
                    self.assert_matches_per_row_loop(seed, case, n, c, level)

    def test_acceptance_beyond_the_largest_block(self):
        # one row in about 45000 passes; the blocks of 64, ..., 4096 rows
        # hold 8128 rows, and this seed needs more than one more 4096-row
        # block
        draws = self.assert_matches_per_row_loop(0, "nq", 2, 2.98, 2)
        assert draws > 8128 + 4096


class TestCommands:
    def test_cone_motivating_example(self, tmp_path):
        rc = main(["cone", "--config", str(CONFIGS / "cone_example.json"),
                   "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["verdict"]["member"] is True
        assert abs(report["verdict"]["margin"] - 2.0 / 3.0) < 1e-12
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["command"] == "cone"
        assert manifest["config_sha256"]

    def test_eigen_and_fm(self, tmp_path):
        cfg = write_config(tmp_path, "fm.json", {
            "T": {"n": 3, "re": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
                  "im": [[0] * 3] * 3},
            "m": 2,
        })
        rc = main(["fm", "--config", cfg, "--out", str(tmp_path / "fm"),
                   "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "fm" / "report.json").read_text())
        assert abs(report["value"] - 60.0 ** (1.0 / 3.0)) < 1e-12
        assert abs(report["determinant_route"] - report["value"]) < 1e-9
        rc = main(["eigen", "--config", cfg, "--out", str(tmp_path / "e"),
                   "--quiet"])
        assert rc == 0
        eig = json.loads((tmp_path / "e" / "report.json").read_text())
        np.testing.assert_allclose(eig["lambdas"], [1.0, 2.0, 3.0], atol=1e-12)

    def test_solve_manufactured(self, tmp_path):
        rc = main(["solve", "--config",
                   str(CONFIGS / "solve_quadratic_c1.json"),
                   "--out", str(tmp_path / "s"), "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        assert report["final_residual"] <= 1e-10
        assert report["min_cone_margin"] > 0
        assert (tmp_path / "s" / "solution.bin").exists()

    def test_grid_override(self, tmp_path):
        rc = main(["solve", "--config",
                   str(CONFIGS / "solve_quadratic_c1.json"),
                   "--out", str(tmp_path / "s"), "--quiet",
                   "--grid-override", "17"])
        assert rc == 0
        sol = gridfunction_from_binary(tmp_path / "s" / "solution.bin")
        assert sol.domain.points_per_axis == 17

    def test_exit_codes(self, tmp_path):
        # missing config file -> parse error
        rc = main(["cone", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 2
        # malformed payload -> validation error
        cfg = write_config(tmp_path, "bad.json", {"T": {"n": 2, "re": [[1]]},
                                                  "m": 1})
        rc = main(["cone", "--config", cfg, "--out", str(tmp_path / "y"),
                   "--quiet"])
        assert rc == 3
        # solver failure -> runtime error
        cfg = write_config(tmp_path, "diverge.json", {
            "problem": "dirichlet",
            "m": 1,
            "grid": {"n": 1, "kind": "ball", "points_per_axis": 9},
            "boundary": {"kind": "squared_norm"},
            "rhs": {"kind": "manufactured_quadratic"},
            "solver": {"tolerance": 1e-15, "max_iterations": 1},
        })
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "z"),
                   "--quiet"])
        assert rc == 4
        error = json.loads((tmp_path / "z" / "error.json").read_text())
        assert "NewtonDiverged" in error["type"]

    def test_missing_config_key_is_a_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "nogrid.json", {
            "problem": "dirichlet",
            "m": 1,
            "boundary": {"kind": "squared_norm"},
            "rhs": {"kind": "manufactured_quadratic"},
        })
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--quiet"])
        assert rc == 3
        assert "missing config key 'grid'" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        [1, 2],
        {"problem": "dirichlet", "m": "x",
         "grid": {"n": 1, "kind": "ball", "points_per_axis": 9},
         "boundary": {"kind": "squared_norm"},
         "rhs": {"kind": "manufactured_quadratic"}},
        {"problem": "dirichlet", "m": 2,
         "grid": {"n": 1, "kind": "ball", "points_per_axis": 9},
         "boundary": {"kind": "squared_norm"},
         "rhs": {"kind": "manufactured_quadratic"}},
        {"problem": "dirichlet", "m": 1,
         "grid": {"n": 99, "kind": "ball", "points_per_axis": 9},
         "boundary": {"kind": "squared_norm"},
         "rhs": {"kind": "manufactured_quadratic"}},
    ], ids=["top_level_list", "non_integer_m", "m_above_n", "oversized_grid"])
    def test_malformed_config_is_a_validation_error(self, tmp_path, capsys,
                                                    config):
        cfg = write_config(tmp_path, "bad.json", config)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(("validation error:", "run failed:"))
        assert "Traceback" not in err

    def test_library_key_error_is_an_internal_error(self, tmp_path,
                                                    monkeypatch):
        def broken(config, out, rng):
            return {}["artifact"]

        monkeypatch.setitem(cli.COMMANDS, "eigen", broken)
        cfg = write_config(tmp_path, "eigen.json", {"T": {"n": 1, "re": [[1]]}})
        rc = main(["eigen", "--config", cfg, "--out", str(tmp_path / "e"),
                   "--quiet"])
        assert rc == 5

    def test_verify_suite_small(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "suite.json", {"corpus_size": 50})
        rc = main(["verify-suite", "--config", cfg, "--seed", "7",
                   "--out", str(tmp_path / "v"), "--quiet"])
        assert rc == 0
        summary = (tmp_path / "v" / "suite_summary.csv").read_text()
        assert "oracle_equivalence" in summary
        assert "FAIL" not in summary
        assert capsys.readouterr().out == ""

    def test_verify_suite_prints_its_table_unless_quiet(self, tmp_path,
                                                        capsys):
        cfg = write_config(tmp_path, "suite.json", {"corpus_size": 25})
        assert main(["verify-suite", "--config", cfg, "--seed", "11",
                     "--out", str(tmp_path / "v")]) == 0
        *table, last = capsys.readouterr().out.splitlines()
        csv = (tmp_path / "v" / "suite_summary.csv").read_text()
        rows = [row.split(",") for row in csv.splitlines()[1:]]
        width = max(len(name) for name, *_ in rows)
        assert table == [
            f"{name:<{width}}  {float(cases):>6.0f}  {float(fails):>3.0f}  "
            f"{status}" for name, cases, fails, status in rows]
        assert last == f"verify-suite: artifacts written to {tmp_path / 'v'}"

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "suite.json", {"corpus_size": 25})
        for sub in ("a", "b"):
            rc = main(["verify-suite", "--config", cfg, "--seed", "11",
                       "--out", str(tmp_path / sub), "--quiet"])
            assert rc == 0
        a = (tmp_path / "a" / "suite_summary.csv").read_bytes()
        b = (tmp_path / "b" / "suite_summary.csv").read_bytes()
        assert a == b

    def test_solve_artifacts_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["solve", "--config",
                       str(CONFIGS / "solve_quadratic_c1.json"),
                       "--out", str(tmp_path / sub), "--quiet"])
            assert rc == 0
        a = (tmp_path / "a" / "solution.csv").read_bytes()
        b = (tmp_path / "b" / "solution.csv").read_bytes()
        assert a == b

    def test_configs_rerun_byte_identical(self, tmp_path):
        # a second run in the same process sees whatever state the first
        # left behind; manifest.json alone records run-specific data
        artifacts = {}
        for sub in ("a", "b"):
            for config in sorted(CONFIGS.glob("*.json")):
                rc = main([config.stem.split("_")[0], "--config", str(config),
                           "--out", str(tmp_path / sub / config.stem),
                           "--quiet"])
                assert rc == 0
            artifacts[sub] = {
                path.relative_to(tmp_path / sub): path.read_bytes()
                for path in (tmp_path / sub).rglob("*")
                if path.is_file() and path.name != "manifest.json"}
        assert len(artifacts["a"]) == 19
        assert artifacts["a"] == artifacts["b"]

    def test_manifest_traces_artifacts(self, tmp_path):
        rc = main(["cone", "--config", str(CONFIGS / "cone_example.json"),
                   "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["artifacts"]["cone.csv"] == [
            "cones", "strong_positivity_oracle"
        ]
        for name in manifest["artifacts"]:
            assert (tmp_path / "o" / name).exists()

    def test_flat_solver_config_keys(self, tmp_path):
        cfg = write_config(tmp_path, "flat.json", {
            "problem": "dirichlet",
            "m": 1,
            "tolerance": 1e-10,
            "t_steps": 2,
            "grid": {"n": 1, "kind": "ball", "points_per_axis": 17},
            "boundary": {"kind": "squared_norm"},
            "rhs": {"kind": "manufactured_quadratic"},
        })
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        assert report["final_residual"] <= 1e-10

    def test_regularize_local_cli(self, tmp_path):
        rc = main(["regularize", "--config",
                   str(CONFIGS / "regularize_local_c1.json"),
                   "--out", str(tmp_path / "r"), "--quiet"])
        assert rc == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["monotone_gap"] <= 1e-8
        assert (tmp_path / "r" / "iterate_00.csv").exists()


# SolverConfig's defaults as the CLI has always resolved them, and one
# non-default value per key
SOLVER_DEFAULTS = {"tolerance": 1e-9, "max_iterations": 100,
                   "cone_floor": 1e-10, "damping_min_step": 2.0 ** -20}
SOLVER_VALUES = {"tolerance": 1e-11, "max_iterations": 7,
                 "cone_floor": 1e-12, "damping_min_step": 2.0 ** -12}


def config_table(data):
    return json.loads(json.dumps(data), object_hook=cli.ConfigTable)


def solver_keys_at(where, keys):
    """A config setting ``keys`` flat, nested under "solver", or not at all."""
    if where == "flat":
        return dict(keys)
    if where == "nested":
        return {"solver": dict(keys)}
    return {}


class TestSolverConfigResolution:
    @pytest.mark.parametrize("where", ["flat", "nested", "absent"])
    @pytest.mark.parametrize("key", sorted(SOLVER_VALUES))
    def test_each_key(self, key, where):
        config = config_table(solver_keys_at(where, {key: SOLVER_VALUES[key]}))
        expected = dict(SOLVER_DEFAULTS)
        if where != "absent":
            expected[key] = SOLVER_VALUES[key]
        assert cli.solver_config_from(config) == SolverConfig(**expected)

    def test_nested_key_wins_over_flat(self):
        config = config_table({**SOLVER_VALUES,
                               "solver": {"max_iterations": 3}})
        resolved = cli.solver_config_from(config)
        assert resolved == SolverConfig(**{**SOLVER_VALUES,
                                           "max_iterations": 3})

    @pytest.mark.parametrize("where, t_steps", [("flat", 3), ("nested", 2),
                                                ("absent", 8)])
    def test_t_steps_reaches_continuity_path(self, tmp_path, monkeypatch,
                                             where, t_steps):
        seen = []
        path = cli.continuity_path

        def spy(*args, **kwargs):
            bound = inspect.signature(path).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["t_steps"])
            return path(*args, **kwargs)

        monkeypatch.setattr(cli, "continuity_path", spy)
        cfg = write_config(tmp_path, "t.json", {
            "problem": "dirichlet",
            "m": 1,
            "grid": {"n": 1, "kind": "ball", "points_per_axis": 9},
            "boundary": {"kind": "squared_norm"},
            "rhs": {"kind": "manufactured_quadratic"},
            **solver_keys_at(where, {"t_steps": t_steps}),
        })
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--quiet"])
        assert rc == 0
        assert seen == [t_steps]
