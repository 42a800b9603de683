#!/usr/bin/env bash
# Check that the configs/ artifacts and the verify-suite outputs of the
# working tree are byte-identical to those of a base commit, and that the
# working tree writes the same bytes at two BLAS threads as at one.
#
# Usage: scripts/check_config_artifacts.sh BASE_REF
#
# Each tree, the base commit (extracted with git archive) and the working
# tree, runs in one Python from its own src/ with one BLAS thread, every
# run through mhessian.cli.main as the command line calls it: its own
# configs/*.json at seeds 0 and 7, each configs/regularize_*.json once more
# at both seeds with schedule.approximants set to "smooth" (no shipped
# config reaches the smoothing path; that Python writes the configs so
# made to the work directory), seven generated configs at both seeds, and
# verify-suite at seeds 0 to 20, whose printed table is kept as table.txt.
# Two generated solves, a C^1 torus with the penalized_distance right-hand
# side and a C^2 ball at m = 2 with scaled_exponential, cover with the
# shipped configs every right-hand-side kind on both domain kinds; a third,
# that ball solve at m = 1, runs BiCGSTAB on a C^2 ball below m = n; a
# fourth, that ball solve on C^3 at 7 points per axis, runs m = 2 below
# m = n, where the 3 x 3 determinant and adjugate of tr(H) I - H give F_m
# and the Newton derivative, and LAPACK's eigvalsh the reported cone
# margin; three generated regularize runs, a C^2 ball at m = 2 and a C^2
# torus at m = 1 and at m = 2, run both pipelines at n = 2, where the
# shipped configs run them at n = 1, and the torus solves with both
# Jacobian row sets (every stencil row at m < n, the trace rows at m = n).
# They live in the work directory only, since the benchmark runs configs/
# whole.  The working tree then runs all of it once more, in a third
# Python, with two BLAS threads (OPENBLAS_NUM_THREADS=2).  Every run writes
# to the same --out paths, since the manifest records them.  The output
# trees are then compared with diff -r, manifest.json excepted: the base
# commit's with the working tree's, and the working tree's at one thread
# with its own at two.  Both comparisons run and are reported; after the
# raw diff of a comparison that fails comes one line per differing file:
# the largest change of its numeric values (.bin payloads, .csv cells) or
# the JSON keys whose values changed.  Exits 0 when every artifact matches
# in both, 1 when one differs or a run fails.
set -euo pipefail

base=${1:?usage: $0 BASE_REF}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base-tree"
git -C "$repo" archive "$base" src configs | tar -x -C "$work/base-tree"

# the generated configs, the same for both trees
mkdir "$work/generated"
cat > "$work/generated/solve_torus_penalized_c1.json" <<'EOF'
{"problem": "torus", "m": 1,
 "grid": {"n": 1, "kind": "torus", "points_per_axis": 33},
 "chi": {"n": 1, "re": [[1.0]]},
 "reference": {"kind": "cos_wave"},
 "rhs": {"kind": "penalized_distance", "beta": 50.0}}
EOF
cat > "$work/generated/solve_ball_scaled_c2.json" <<'EOF'
{"problem": "dirichlet", "m": 2,
 "grid": {"n": 2, "kind": "ball", "points_per_axis": 9},
 "boundary": {"kind": "quadratic_plus_exp"},
 "rhs": {"kind": "scaled_exponential",
         "amplitude": {"kind": "constant", "value": 2.0},
         "shift": {"kind": "quadratic_plus_exp"}},
 "solver": {"t_steps": 2}}
EOF
cat > "$work/generated/solve_ball_scaled_c2_m1.json" <<'EOF'
{"problem": "dirichlet", "m": 1,
 "grid": {"n": 2, "kind": "ball", "points_per_axis": 9},
 "boundary": {"kind": "quadratic_plus_exp"},
 "rhs": {"kind": "scaled_exponential",
         "amplitude": {"kind": "constant", "value": 2.0},
         "shift": {"kind": "quadratic_plus_exp"}},
 "solver": {"t_steps": 2}}
EOF
cat > "$work/generated/solve_ball_scaled_c3.json" <<'EOF'
{"problem": "dirichlet", "m": 2,
 "grid": {"n": 3, "kind": "ball", "points_per_axis": 7},
 "boundary": {"kind": "quadratic_plus_exp"},
 "rhs": {"kind": "scaled_exponential",
         "amplitude": {"kind": "constant", "value": 2.0},
         "shift": {"kind": "quadratic_plus_exp"}},
 "solver": {"t_steps": 2}}
EOF
cat > "$work/generated/regularize_local_c2.json" <<'EOF'
{"mode": "local", "m": 2,
 "grid": {"n": 2, "kind": "ball", "points_per_axis": 9},
 "target": {"kind": "squared_norm", "offset": -3.5},
 "schedule": {"count": 6, "beta_start": 10.0}}
EOF
cat > "$work/generated/regularize_global_c2.json" <<'EOF'
{"mode": "global", "m": 1,
 "grid": {"n": 2, "kind": "torus", "points_per_axis": 7},
 "target": {"kind": "cos_wave", "amplitude": 0.04, "offset": -2.6},
 "chi": {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]]},
 "schedule": {"count": 6, "beta_start": 50.0}}
EOF
cat > "$work/generated/regularize_global_c2_m2.json" <<'EOF'
{"mode": "global", "m": 2,
 "grid": {"n": 2, "kind": "torus", "points_per_axis": 7},
 "target": {"kind": "cos_wave", "amplitude": 0.04, "offset": -2.6},
 "chi": {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]]},
 "schedule": {"count": 6, "beta_start": 50.0}}
EOF

# run TREE LABEL THREADS: one Python from TREE's src/ with THREADS BLAS
# threads runs every config of TREE, its smooth variants and the generated
# configs at seeds 0 and 7, then verify-suite at seeds 0 to 20, each
# through mhessian.cli.main as the command line calls it, outputs to
# $work/LABEL
run() {
    if ! PYTHONPATH="$1/src" OPENBLAS_NUM_THREADS=$3 python - "$1" "$work" \
            <<'PY'
import contextlib
import json
import shutil
import sys
from pathlib import Path

from mhessian.cli import main

tree, work = map(Path, sys.argv[1:3])
out = work / "out"

# each configs/regularize_*.json with its schedule set to the "smooth"
# approximants, written to $work/smooth; the eta keys are unread beside
# "smooth", and an unread key exits 3, so they are dropped
shutil.rmtree(work / "smooth", ignore_errors=True)
(work / "smooth").mkdir()
for path in sorted(tree.glob("configs/regularize_*.json")):
    config = json.loads(path.read_text())
    schedule = config["schedule"]
    for key in ("eta_start", "eta_decay"):
        schedule.pop(key, None)
    schedule["approximants"] = "smooth"
    (work / "smooth" / f"{path.stem}_smooth.json").write_text(
        json.dumps(config, indent=2))

for config in [*sorted(tree.glob("configs/*.json")),
               *sorted(work.glob("smooth/*.json")),
               *sorted(work.glob("generated/*.json"))]:
    for seed in (0, 7):
        # the subcommand is the first word of each config's name
        code = main([config.stem.split("_")[0], "--config", str(config),
                     "--seed", str(seed),
                     "--out", str(out / f"{config.stem}-{seed}"), "--quiet"])
        if code:
            sys.exit(f"{config.stem} at seed {seed} exited {code}")

# the printed table of each verify-suite seed is kept as table.txt
for seed in range(21):
    suite = out / f"suite-{seed}"
    suite.mkdir(parents=True)
    with open(suite / "table.txt", "w") as table, \
            contextlib.redirect_stdout(table):
        code = main(["verify-suite", "--seed", str(seed),
                     "--out", str(suite)])
    if code:
        sys.exit(f"verify-suite at seed {seed} exited {code}")
PY
    then
        echo "$2: a run failed" >&2
        return 1
    fi
    mv "$work/out" "$work/$2"
}

# summarize A B: one line per file that differs between the output trees
# A and B, manifest.json excepted; informational only, it decides nothing
summarize() {
    python - "$1" "$2" <<'PY'
import json
import re
import sys
from pathlib import Path

import numpy as np

HEADER = 28  # bytes of the grid dump header, struct "<4sIIIdI"


def largest(pairs):
    """'max |d| D over N values' over value pairs that differ; a pair
    that is not two finite numbers counts as other."""
    big, moved, other = 0.0, 0, 0
    for x, y in pairs:
        try:
            d = (float("nan") if bool in (type(x), type(y))
                 else abs(float(x) - float(y)))
        except (TypeError, ValueError):
            d = float("nan")
        if d == d:
            big, moved = max(big, d), moved + 1
        else:
            other += 1
    return (f"max |d| {big:.3e} over {moved} values"
            + (f", {other} other" if other else ""))


def leaves(x, path=""):
    if isinstance(x, dict):
        for k in sorted(x):
            yield from leaves(x[k], f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, x


def change(a, b):
    if a.suffix == ".bin":
        ra, rb = a.read_bytes(), b.read_bytes()
        if ra[:HEADER] != rb[:HEADER] or len(ra) != len(rb):
            return "headers or sizes differ"
        va = np.frombuffer(ra[HEADER:], "<f8")
        vb = np.frombuffer(rb[HEADER:], "<f8")
        moved = va.view("<i8") != vb.view("<i8")
        return largest(zip(va[moved], vb[moved]))
    if a.suffix == ".json":
        la = dict(leaves(json.loads(a.read_text())))
        lb = dict(leaves(json.loads(b.read_text())))
        keys = [k for k in sorted(la.keys() | lb.keys())
                if k not in la or k not in lb or la[k] != lb[k]]
        names = dict.fromkeys(re.sub(r"\[\d+\]", "[]", k) for k in keys)
        pairs = [(la[k], lb[k]) for k in keys if k in la and k in lb]
        return f"keys {', '.join(names)} ({largest(pairs)})"
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    if len(la) != len(lb):
        return f"{len(la)} and {len(lb)} lines"
    if a.suffix == ".csv":
        return largest((x, y) for ra, rb in zip(la, lb)
                       for x, y in zip(ra.split(","), rb.split(","))
                       if x != y)
    return f"{sum(x != y for x, y in zip(la, lb))} lines differ"


root_a, root_b = map(Path, sys.argv[1:3])
files = {p.relative_to(root) for root in (root_a, root_b)
         for p in root.rglob("*") if p.is_file()}
print("largest change per differing file:")
for rel in sorted(files):
    a, b = root_a / rel, root_b / rel
    if rel.name == "manifest.json":
        continue
    if not (a.exists() and b.exists()):
        print(f"  {rel}: only in {(root_a if a.exists() else root_b).name}")
    elif a.read_bytes() != b.read_bytes():
        print(f"  {rel}: {change(a, b)}")
PY
}

run "$work/base-tree" base 1
run "$repo" head 1
run "$repo" head-2threads 2
status=0
if diff -r --exclude=manifest.json "$work/base" "$work/head"; then
    echo "configs/ artifacts, their smooth reruns and the generated configs" \
        "match $base at seeds 0 and 7, verify-suite outputs at seeds 0 to 20"
else
    echo "configs/, generated config or verify-suite outputs differ from" \
        "$base" >&2
    summarize "$work/base" "$work/head" || true
    status=1
fi
if diff -r --exclude=manifest.json "$work/head" "$work/head-2threads"; then
    echo "every output of the working tree is the same at two BLAS threads" \
        "as at one"
else
    echo "outputs of the working tree differ between one and two BLAS" \
        "threads" >&2
    summarize "$work/head" "$work/head-2threads" || true
    status=1
fi
exit $status
