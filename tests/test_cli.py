import contextlib
import inspect
import io
import json
import struct
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mhessian import cli, curvature, fm, hermitian, suite
from mhessian.cli import main
from mhessian.cones import is_m_semipositive, strong_positivity_oracle
from mhessian.errors import ConfigError
from mhessian.fm import concavity_probe, fm_from_lambdas, fm_product_bound, \
    fm_value, fm_via_determinant
from mhessian.grids import GridDomain, GridFunction
from mhessian.hermitian import HermitianMatrix, MetricMatrix
from mhessian.multiindex import subset_sums
from mhessian.serialize import (
    coordinate_headers,
    gridfunction_from_binary,
    gridfunction_to_binary,
    gridfunction_to_csv,
)
from mhessian.solver import SolverConfig

from conftest import random_hermitian

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_CONFIGS = {path.stem: json.loads(path.read_text())
                   for path in sorted(CONFIGS.glob("*.json"))}


def grid_dump(kind=0, radius=1.0, points_per_axis=5, n=1):
    """Header plus zero payload of a binary grid dump on a C^n grid."""
    header = struct.pack("<4sIIIdI", b"MHGF", 1, n, kind, radius,
                         points_per_axis)
    return header + bytes(8 * points_per_axis ** (2 * n))


VALID_DUMP = grid_dump()
DUMP_PREFIXES = [b"", b"MHGF", b"MHGF" + struct.pack("<I", 1), VALID_DUMP[:32]]

MALFORMED_DUMPS = {
    "bad_magic": b"NOPE" + bytes(64),
    "truncated_header": grid_dump()[:20],
    "unknown_kind": grid_dump(kind=7),
    "even_points_per_axis": grid_dump(points_per_axis=6),
    "nan_radius": grid_dump(radius=float("nan")),
}


def per_row_hypothesis_spectrum(rng, case, n, c, level):
    """verify-suite's former per-row rejection loop, as the reference for
    suite._hypothesis_spectrum, with the number of rows it drew."""
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


def per_case_suite_sections(corpus_size):
    """verify-suite's former case-at-a-time sections, as the reference for
    mhessian.suite: each a callable rng -> rows, in run order.

    ``fm.fm_gradient_diagonal`` is looked up on its module, so that a spy
    set there sees the reference's calls too.
    """
    def row(name, cases, failures):
        return (name, cases, failures, "pass" if failures == 0 else "FAIL")

    def random_hermitian(rng, n, scale=1.0):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return HermitianMatrix(scale * 0.5 * (X + X.conj().T))

    def random_metric(rng, n):
        Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(Z)
        vals = rng.uniform(0.5, 2.0, size=n)
        return MetricMatrix(HermitianMatrix(Q @ np.diag(vals) @ Q.conj().T))

    def interior_spectrum(rng, n, m):
        lam = np.sort(rng.uniform(-1.0, 2.0, size=n))
        smallest = lam[:m].sum()
        if smallest < 0.1:
            lam = lam + (0.1 - smallest) / m
        return lam

    def interior_form(rng, g, n, m):
        lam = interior_spectrum(rng, n, m)
        Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(Z)
        B = g.cholesky @ Q
        return HermitianMatrix(B @ np.diag(lam) @ B.conj().T)

    def oracle(rng):
        fails_eq = fails_mono = 0
        for _ in range(corpus_size):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            T, omega = random_hermitian(rng, n), random_metric(rng, n)
            a = is_m_semipositive(T, omega, m)
            b = strong_positivity_oracle(T, omega, m)
            if a.member != b.member or abs(a.margin - b.margin) > 1e-12:
                fails_eq += 1
            if (m < n and a.member
                    and not is_m_semipositive(T, omega, m + 1).member):
                fails_mono += 1
        return [row("oracle_equivalence", corpus_size, fails_eq),
                row("membership_monotonicity", corpus_size, fails_mono)]

    def gradient(rng):
        fails = 0
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            lam = interior_spectrum(rng, n, m)
            grad = fm.fm_gradient_diagonal(lam, m)
            h = 1e-5
            for p in range(n):
                up, dn = lam.copy(), lam.copy()
                up[p] += h
                dn[p] -= h
                fd = (fm_from_lambdas(up, m).value
                      - fm_from_lambdas(dn, m).value) / (2 * h)
                if abs(fd - grad[p]) > 1e-6 * max(1.0, abs(fd)):
                    fails += 1
        return [row("gradient_finite_differences", 200, fails)]

    def determinant(rng):
        fails = 0
        for _ in range(500):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            g = random_metric(rng, n)
            T = interior_form(rng, g, n, m)
            a = fm_via_determinant(T, g, m)
            b = fm_value(T, g, m).value
            if abs(a - b) > 1e-9 * abs(b):
                fails += 1
        return [row("determinant_route", 500, fails)]

    def concavity(rng):
        fails = 0
        for _ in range(500):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, n + 1))
            g = random_metric(rng, n)
            if not concavity_probe(interior_form(rng, g, n, m),
                                   interior_form(rng, g, n, m), g, m, steps=7):
                fails += 1
        return [row("concavity_probe", 500, fails)]

    def bound_regimes(rng):
        rows = []
        for case in ("p0", "0q", "nq", "pn"):
            fails = 0
            for _ in range(500):
                n = int(rng.integers(2, 6))
                c = float(rng.uniform(0.2, 1.5))
                if case in ("nq", "pn"):
                    level = int(rng.integers(1, n + 1))
                else:
                    level = int(rng.integers(0, n))
                lam, _ = per_row_hypothesis_spectrum(rng, case, n, c, level)
                if not curvature.verify_bound_regime(case, lam, c, level):
                    fails += 1
            rows.append(row(f"bound_regime_{case}", 500, fails))
        return rows

    def product_bound(rng):
        fails = 0
        for n in (2, 3, 4):
            for m in range(1, n + 1):
                lam = np.sort(rng.uniform(-1.0, 2.0, size=(10000, n)), axis=-1)
                smallest = lam[:, :m].sum(axis=-1)
                lam += (np.maximum(0.0, 1e-3 - smallest) / m)[:, None]
                prods = np.prod(fm.fm_gradient_diagonal(lam, m), axis=-1)
                fails += int((prods < fm_product_bound(n, m) - 1e-12).sum())
        return [row("gradient_product_bound", 90000, fails)]

    return (oracle, gradient, determinant, concavity, bound_regimes,
            product_bound)


def spy_on_corpus(monkeypatch):
    """A list that collects, as bytes, every matrix validated by
    ``hermitian_entries``, every spectrum given to ``fm_gradient_diagonal``
    and every input of ``bound_regime_holds``, from the per-matrix
    functions and from the suite alike."""
    seen = []
    entries = hermitian.hermitian_entries
    gradient = fm.fm_gradient_diagonal
    regime = curvature.bound_regime_holds

    def rows(array):
        array = np.asarray(array)
        return array.reshape(-1, array.shape[-1])

    def entries_spy(a):
        out = entries(a)
        seen.extend(("matrix", m.tobytes())
                    for m in out.reshape(-1, *out.shape[-2:]))
        return out

    def gradient_spy(lambdas, m):
        seen.extend(("gradient", m, lam.tobytes()) for lam in rows(lambdas))
        return gradient(lambdas, m)

    def regime_spy(case, lambdas, c, level):
        lam = rows(lambdas)
        cs = np.broadcast_to(c, lam.shape[:-1])
        seen.extend(("regime", case, level, float(ci), row.tobytes())
                    for ci, row in zip(cs, lam))
        return regime(case, lambdas, c, level)

    for module in (hermitian, suite):
        monkeypatch.setattr(module, "hermitian_entries", entries_spy)
    for module in (fm, suite):
        monkeypatch.setattr(module, "fm_gradient_diagonal", gradient_spy)
    for module in (curvature, suite):
        monkeypatch.setattr(module, "bound_regime_holds", regime_spy)
    return seen


# a C^1 Dirichlet solve and two shipped configs, for malformed variants of
# their keys
DIRICHLET_C1 = {"problem": "dirichlet", "m": 1,
                "grid": {"n": 1, "kind": "ball", "points_per_axis": 9},
                "boundary": {"kind": "squared_norm"},
                "rhs": {"kind": "manufactured_quadratic"}}
CONE_EXAMPLE = SHIPPED_CONFIGS["cone_example"]
LOCAL_C1 = SHIPPED_CONFIGS["regularize_local_c1"]


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def with_value(tree, path, value):
    """A copy of a JSON tree with the node at ``path`` (its keys and list
    indices) set to ``value``."""
    tree = json.loads(json.dumps(tree))
    *parents, last = path
    node = tree
    for key in parents:
        node = node[key]
    node[last] = value
    return tree


def json_nodes(node, path=()):
    """(path, node) for every node of a JSON tree, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from json_nodes(child, path + (key,))


# each config reproduces a way a malformed key used to run on, crash or
# read as something else; the message names the key
REJECTED_CONFIGS = {
    "fractional_grid_n": ("solve", with_value(DIRICHLET_C1, ("grid", "n"),
                                              1.9), "grid.n"),
    "fractional_points_per_axis": (
        "solve", with_value(DIRICHLET_C1, ("grid", "points_per_axis"), 9.6),
        "grid.points_per_axis"),
    "bool_radius": ("solve", with_value(DIRICHLET_C1, ("grid", "radius"),
                                        True), "grid.radius"),
    "bool_matrix_n": ("cone", with_value(CONE_EXAMPLE, ("T", "n"), True),
                      "T.n"),
    "fractional_matrix_n": ("cone", with_value(CONE_EXAMPLE, ("T", "n"), 2.5),
                            "T.n"),
    "huge_matrix_n": ("cone", with_value(CONE_EXAMPLE, ("T", "n"), 10 ** 7),
                      "T.re"),
    "string_matrix_entry": ("eigen", {"T": {"n": 1, "re": [["1"]]}}, "T.re"),
    "null_metric": ("cone", {**CONE_EXAMPLE, "omega": None}, "omega"),
    "misspelt_metric": ("cone", {"T": CONE_EXAMPLE["T"], "m": 2,
                                 "omgea": CONE_EXAMPLE["omega"]}, "omgea"),
    "misspelt_approximants": (
        "regularize", with_value(LOCAL_C1, ("schedule", "approximants"),
                                 "smoth"), "schedule.approximants"),
    "misspelt_schedule_key": (
        "regularize", with_value(LOCAL_C1, ("schedule", "aproximants"),
                                 "smooth"), "schedule.aproximants"),
    "eta_beside_smooth": (
        "regularize", with_value(LOCAL_C1, ("schedule", "approximants"),
                                 "smooth"), "schedule.eta_start"),
    "nan_tolerance": ("solve", {**DIRICHLET_C1,
                                "solver": {"tolerance": float("nan")}},
                      "solver.tolerance"),
    "infinite_m": ("cone", {**CONE_EXAMPLE, "m": float("inf")}, "m"),
    "beyond_float_corpus_size": ("verify-suite",
                                 '{"corpus_size": 1%s}' % ("0" * 400),
                                 "corpus_size"),
    "unknown_problem": ("solve", {**DIRICHLET_C1, "problem": "heat"},
                        "problem"),
    "t_steps_on_the_torus": (
        "solve", {"problem": "torus", "m": 1,
                  "grid": {"n": 1, "kind": "torus", "points_per_axis": 9},
                  "chi": {"n": 1, "re": [[1.0]]},
                  "reference": {"kind": "constant", "value": -2.0},
                  "rhs": {"kind": "penalized_distance", "beta": 10.0},
                  "solver": {"t_steps": 2}}, "solver.t_steps"),
    "duplicate_key": ("cone", '{"m": 1, "m": 2}', "m"),
    "nested_duplicate_key": (
        "solve", json.dumps(DIRICHLET_C1).replace('"n": 1', '"n": 1, "n": 2'),
        "n"),
}


def run_quietly(argv):
    """``main(argv)`` with stderr captured: the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def run_shipped_variant(base, name, config):
    """Exit code, stderr and written file names of ``config`` run as the
    shipped config ``name`` is, with --grid-override 9, in a new directory
    under ``base``."""
    work = Path(tempfile.mkdtemp(dir=base))
    rc, err = run_quietly([name.split("_")[0],
                           "--config", write_config(work, "c.json", config),
                           "--out", str(work / "out"), "--quiet",
                           "--grid-override", "9"])
    return rc, err, sorted(p.name for p in (work / "out").iterdir())


# the values that replace a leaf of a shipped config; a string replaces a
# number and a number a string
WRONG_TYPED = [True, False, None, [], [1.0], {}, {"value": 1.0},
               float("nan"), float("inf"), float("-inf")]


@st.composite
def wrong_typed_leaf(draw):
    """A shipped config's name and the config with one leaf replaced by a
    value of the wrong type."""
    name = draw(st.sampled_from(sorted(SHIPPED_CONFIGS)))
    config = SHIPPED_CONFIGS[name]
    # --grid-override sets grid.points_per_axis, so no value of it shows
    leaves = [(path, node) for path, node in json_nodes(config)
              if not isinstance(node, (dict, list))
              and path != ("grid", "points_per_axis")]
    path, value = draw(st.sampled_from(leaves))
    wrong = WRONG_TYPED + [1.0 if isinstance(value, str) else "1.0"]
    # in the shipped configs the int keys are the integer leaves outside a
    # list (matrix entries are float keys)
    if isinstance(value, int) and not isinstance(path[-1], int):
        wrong.append(value + 0.5)
    return name, with_value(config, path, draw(st.sampled_from(wrong)))


@st.composite
def misspelt_sibling(draw):
    """A shipped config's name and the config with a key added beside one
    of its keys, spelt with one letter dropped or inserted."""
    name = draw(st.sampled_from(sorted(SHIPPED_CONFIGS)))
    config = SHIPPED_CONFIGS[name]
    tables = [(path, node) for path, node in json_nodes(config)
              if isinstance(node, dict)]
    path, table = draw(st.sampled_from(tables))
    key = draw(st.sampled_from(sorted(table)))
    i = draw(st.integers(0, len(key)))
    typo = draw(st.sampled_from([key[:i] + key[i + 1:]]
                                + [key[:i] + c + key[i:] for c in "aeist_"]))
    assume(typo not in table)
    return name, with_value(config, path + (typo,), table[key])


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
        lam = suite._hypothesis_spectrum(mine, case, n, c, level)
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


class TestSuiteAgainstPerCaseReference:
    @pytest.mark.parametrize("seed", [0, 5841, 20240811])
    def test_rows_state_and_corpus_match_every_section(self, monkeypatch,
                                                        seed):
        seen = spy_on_corpus(monkeypatch)
        mine, ref = (np.random.default_rng(seed) for _ in range(2))
        for section, reference in zip(suite.sections(1000),
                                      per_case_suite_sections(1000),
                                      strict=True):
            rows = section(mine)
            corpus = Counter(seen)
            seen.clear()
            assert rows == reference(ref)
            assert mine.bit_generator.state == ref.bit_generator.state
            assert corpus == Counter(seen)
            seen.clear()

    def test_blocks_do_not_change_the_corpus(self, monkeypatch):
        # a corpus that spans several blocks, the last one partial
        monkeypatch.setattr(suite, "BLOCK", 7)
        seen = spy_on_corpus(monkeypatch)
        mine, ref = (np.random.default_rng(3) for _ in range(2))
        rows = suite.oracle_section(mine, cases=40)
        corpus = Counter(seen)
        seen.clear()
        assert rows == per_case_suite_sections(40)[0](ref)
        assert mine.bit_generator.state == ref.bit_generator.state
        assert corpus == Counter(seen)


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
        T = {"n": 3, "re": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
             "im": [[0] * 3] * 3}
        cfg = write_config(tmp_path, "fm.json", {"T": T, "m": 2})
        rc = main(["fm", "--config", cfg, "--out", str(tmp_path / "fm"),
                   "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "fm" / "report.json").read_text())
        assert abs(report["value"] - 60.0 ** (1.0 / 3.0)) < 1e-12
        assert abs(report["determinant_route"] - report["value"]) < 1e-9
        # eigen reads no m
        cfg = write_config(tmp_path, "eigen.json", {"T": T})
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

    @pytest.mark.parametrize("command, config", [
        ("solve", [1, 2]),
        ("solve", {**DIRICHLET_C1, "m": "x"}),
        ("solve", {**DIRICHLET_C1, "m": 2}),
        ("solve", {**DIRICHLET_C1,
                   "grid": {"n": 99, "kind": "ball", "points_per_axis": 9}}),
        *(("solve", {"problem": "torus", "m": m,
                     "grid": {"n": 1, "kind": "torus", "points_per_axis": 9},
                     "chi": {"n": 1, "re": [[1.0]], "im": [[0.0]]},
                     "reference": {"kind": "constant", "value": -2.0},
                     "rhs": {"kind": "penalized_distance", "beta": 10.0}})
          for m in (0, 2)),
        ("solve", {**DIRICHLET_C1, "m": 1.9}),
        ("solve", {**DIRICHLET_C1, "m": True}),
        ("solve", {**DIRICHLET_C1, "tolerance": True}),
        ("cone", {**CONE_EXAMPLE, "m": 1.9}),
        ("cone", {**CONE_EXAMPLE, "m": True}),
        ("verify-suite", {"corpus_size": 3.7}),
        ("verify-suite", {"corpus_size": -5}),
    ], ids=["top_level_list", "non_integer_m", "m_above_n", "oversized_grid",
            "torus_m_zero", "torus_m_above_n", "fractional_m", "bool_m",
            "bool_tolerance", "cone_fractional_m", "cone_bool_m",
            "fractional_corpus_size", "negative_corpus_size"])
    def test_malformed_config_is_a_validation_error(self, tmp_path, capsys,
                                                    command, config):
        cfg = write_config(tmp_path, "bad.json", config)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "s"),
                   "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(("validation error:", "run failed:"))
        assert "Traceback" not in err
        written = {p.name for p in (tmp_path / "s").iterdir()}
        assert written <= {"manifest.json", "error.json"}

    @pytest.mark.parametrize("name", list(REJECTED_CONFIGS))
    def test_rejected_config_names_its_key(self, tmp_path, name):
        command, config, key = REJECTED_CONFIGS[name]
        rc, err = run_quietly([command, "--config",
                               write_config(tmp_path, "bad.json", config),
                               "--out", str(tmp_path / "s"), "--quiet"])
        assert rc == 3
        assert err.startswith("validation error:")
        assert repr(key) in err
        assert "Traceback" not in err
        written = {p.name for p in (tmp_path / "s").iterdir()}
        assert written <= {"manifest.json"}

    @pytest.mark.parametrize("raw", [b'{"m": "\xff"}',
                                     b"[" * 10 ** 5 + b"]" * 10 ** 5],
                             ids=["not_utf8", "nested_too_deep"])
    def test_unparsable_config_is_a_parse_error(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        rc, err = run_quietly(["cone", "--config", str(path),
                               "--out", str(tmp_path / "s")])
        assert rc == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("blocked", ["out_dir", "manifest"])
    def test_unusable_output_is_an_output_error(self, tmp_path, blocked):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        if blocked == "manifest":
            out = tmp_path / "o"
            (out / "manifest.json").mkdir(parents=True)
        rc, err = run_quietly(["cone", "--config",
                               str(CONFIGS / "cone_example.json"),
                               "--out", str(out), "--quiet"])
        assert rc == 2
        assert err.startswith("output error:")
        assert "Traceback" not in err

    def test_integral_float_reads_as_int(self, tmp_path):
        reports = []
        for m in (2, 2.0):
            cfg = write_config(tmp_path, "cone.json", {**CONE_EXAMPLE, "m": m})
            out = tmp_path / f"cone_{m!r}"
            assert main(["cone", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["verdict"]["witness"] == [1, 2]

    @pytest.mark.parametrize("homotopy", [True, False, "false"])
    def test_homotopy_key_is_rejected(self, tmp_path, capsys, homotopy):
        cfg = write_config(tmp_path, "h.json", {
            "problem": "dirichlet", "m": 1, "homotopy": homotopy,
            "grid": {"n": 1, "kind": "ball", "points_per_axis": 9},
            "boundary": {"kind": "squared_norm"},
            "rhs": {"kind": "manufactured_quadratic"},
        })
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: config key 'homotopy'")
        assert "solver.t_steps: 1 is the direct solve" in err
        assert not (tmp_path / "s" / "report.json").exists()

    @pytest.mark.parametrize("m", [0, 2])
    def test_global_regularize_m_outside_one_to_n(self, tmp_path, capsys, m):
        cfg = write_config(tmp_path, "m.json", {
            "mode": "global", "m": m,
            "grid": {"n": 1, "kind": "torus", "points_per_axis": 9},
            "chi": {"n": 1, "re": [[1.0]], "im": [[0.0]]},
            "target": {"kind": "cos_wave", "amplitude": 0.05, "offset": -2.5},
        })
        rc = main(["regularize", "--config", cfg, "--out",
                   str(tmp_path / "r"), "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"run failed: need 1 <= m <= n, got m={m}")
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

    def test_flat_solver_config_keys(self, tmp_path, capsys):
        # solver settings are read from the "solver" table only
        cfg = write_config(tmp_path, "flat.json", {
            **DIRICHLET_C1, "tolerance": 1e-10, "t_steps": 2})
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "validation error: unknown config key 'tolerance'\n")
        assert [p.name for p in (tmp_path / "s").iterdir()] == [
            "manifest.json"]

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
    return json.loads(json.dumps(data), object_pairs_hook=cli.ConfigTable)


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
        # a flat key is not a solver setting: it stays unread, and so
        # unknown
        config = config_table(solver_keys_at(where, {key: SOLVER_VALUES[key]}))
        expected = dict(SOLVER_DEFAULTS)
        if where == "nested":
            expected[key] = SOLVER_VALUES[key]
        assert cli.solver_config_from(config) == SolverConfig(**expected)
        if where == "flat":
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                config.reject_unread()
        else:
            config.reject_unread()

    def test_flat_key_beside_nested_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "both.json", {
            **DIRICHLET_C1, "tolerance": 1e-12, "solver": {"tolerance": 1e-6}})
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s"),
                   "--quiet"])
        assert rc == 3
        assert "unknown config key 'tolerance'" in capsys.readouterr().err

    @pytest.mark.parametrize("where, t_steps", [("nested", 2), ("absent", 8)])
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


class TestConfigTable:
    def test_matrix_reads_its_entries(self, rng):
        entries = random_hermitian(rng, 3).entries
        config = config_table({"A": {"n": 3, "re": entries.real.tolist(),
                                     "im": entries.imag.tolist()},
                               "B": {"n": 1, "re": [[2]]}})
        np.testing.assert_array_equal(config.matrix("A").entries, entries)
        np.testing.assert_array_equal(config.matrix("B").entries, [[2.0]])
        config.reject_unread()


class TestFuzz:
    """Each malformed input fails with its typed error and nothing else."""

    @settings(max_examples=100, deadline=None)
    @given(mutation=wrong_typed_leaf())
    def test_wrong_typed_leaf_is_a_validation_error(self, tmp_path_factory,
                                                    mutation):
        rc, err, written = run_shipped_variant(
            tmp_path_factory.getbasetemp(), *mutation)
        assert (rc, written) == (3, ["manifest.json"]), err
        assert err.startswith("validation error:")
        assert "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @given(mutation=misspelt_sibling())
    def test_misspelt_sibling_key_is_a_validation_error(self,
                                                        tmp_path_factory,
                                                        mutation):
        rc, err, written = run_shipped_variant(
            tmp_path_factory.getbasetemp(), *mutation)
        assert (rc, written) == (3, ["manifest.json"]), err
        assert err.startswith("validation error: unknown config key")

    @staticmethod
    def read_dump(tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(raw)
        try:
            assert isinstance(gridfunction_from_binary(path), GridFunction)
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(prefix=st.sampled_from(DUMP_PREFIXES), tail=st.binary(max_size=64))
    def test_random_dump_reads_or_is_a_config_error(self, tmp_path_factory,
                                                    prefix, tail):
        self.read_dump(tmp_path_factory, prefix + tail)

    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(0, len(VALID_DUMP) - 1),
           byte=st.integers(0, 255))
    def test_corrupt_dump_reads_or_is_a_config_error(self, tmp_path_factory,
                                                     index, byte):
        raw = bytearray(VALID_DUMP)
        raw[index] = byte
        self.read_dump(tmp_path_factory, bytes(raw))
