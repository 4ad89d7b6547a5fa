#!/usr/bin/env bash
# Write a fixed set of mpccert outputs from the source tree TREE into OUT.
#
#     tools/cli_outputs.sh TREE OUT
#
# Two trees give byte-identical OUT directories (compare them with
# `diff -r`) exactly when they print and write the same numbers for:
#
#   * 28 sweeps over unit-circle:128: alg1-alg4 at N = 3, 10, 20 and
#     alpha_bar 0.01, 0.6, and at N = 3 and alpha_bar 0.6 with
#     --max-iterations 7 (every run stops at the cap);
#   * a sweep of alg1 at N = 3 and alpha_bar 0.5 over unit-circle:4 on
#     the plant with A = 10 I and R = 1e10 (below), where every run
#     overflows: four error rows, and exit 3;
#   * 20 single runs.  13 start from x0 = (0, 1) on the bundled plant:
#     alg1-alg4 at N = 3 and alpha_bar 0.5, at N = 3 and alpha_bar 0.01
#     with forced lengths 2,1, and at N = 20 and alpha_bar 0.01 with
#     forced length 15 (windows and re-plan budgets of 8 and more steps,
#     where sums keep np.sum's pairwise bits), and alg4 at N = 3 and
#     alpha_bar 0.5 with --max-iterations 5.  1 runs alg3 at N = 3 and
#     alpha_bar 0.01 from x0 = (1e-9, 0), inside the termination radius:
#     it reports converged after 0 iterations, with NaN degrees and no
#     certificate, and exits 0.  2 run alg2 and alg4 on a
#     3-state plant that this script writes (the "alg2-n3-N3" plant of
#     tests/test_oracle.py), from x0 = (0.39, 0.99, 1.04) at N = 3,
#     alpha_bar 0.6 and forced length 2: both converge and reject some
#     of their re-plans, which no run on the bundled plant does.  3 run
#     alg3 at N = 3 and alpha_bar 0.5 from initial states whose first
#     iteration overflows, and exit 2: the bundled plant from (1e160, 0),
#     where x0' x0, x0' P_3 x0 and the first plan's end values all
#     overflow, and two plants this script writes as edits of it: with
#     Q = 1e-20 I from (1e160, 0), where only x0' x0 does, and with
#     A = 10 I and R = 1e10 from (1e152, 0), where only the end values do.
#     1 runs alg1 at N = 3 and alpha_bar 0.5 on the Q = 1e-20 I plant from
#     (1, 0): it passes its first iteration, diverges, overflows late in
#     its run, and exits 2;
#   * the horizon table for N = 2,3,4,5,10,20 over unit-circle:128, and
#     for the unsorted N = 20,2,5 over unit-circle:64 at alpha_bar 0.3,
#     whose rows of mixed horizons share one batch;
#   * reproduce-paper (10 of 11 checks pass, exit 4);
#   * the value-recursion matrices P_1 ... P_20 of the bundled plant
#     (riccati), and riccati on a plant file with a nonzero
#     equilibrium_state, which exits 2 with a message that names no path;
#   * SHA-256 hashes of value_drop_grid on n x n states for n = 1, 64,
#     65, 101 and 131 (one state, one full block of 4,096 states, and
#     grids past one and several blocks) at (N, m) = (3, 1), (3, 2),
#     (10, 1), (20, 1), (20, 10) and (20, 19), under both control laws.
#
# Every command runs with --no-timestamp where it writes a summary, under
# -W error::RuntimeWarning, with TREE/src first on PYTHONPATH.  Each
# command's stdout, stderr and exit code are kept next to its files.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUT" >&2
    exit 2
fi
tree=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
plant="$tree/plants/spiral2d.txt"
export PYTHONPATH="$tree/src${PYTHONPATH:+:$PYTHONPATH}"

# record NAME ARGS...: run the CLI with ARGS, keeping its files under OUT/NAME.
record() {
    local name=$1
    shift
    mkdir -p "$out/$name"
    set +e
    python3 -W error::RuntimeWarning -m mpccert.cli "$@" \
        >"$out/$name/stdout.txt" 2>"$out/$name/stderr.txt"
    echo $? >"$out/$name/exit.txt"
    set -e
}

for variant in alg1 alg2 alg3 alg4; do
    for horizon in 3 10 20; do
        for alpha in 0.01 0.6; do
            name="sweep-$variant-N$horizon-a$alpha"
            record "$name" sweep --plant "$plant" --variant "$variant" --horizon "$horizon" \
                --alpha-bar "$alpha" --set unit-circle:128 --out "$out/$name" --no-timestamp
        done
    done
    name="run-$variant-a0.5"
    record "$name" run --plant "$plant" --variant "$variant" --horizon 3 --alpha-bar 0.5 \
        --x0 0,1 --out "$out/$name" --no-timestamp
    name="run-$variant-a0.01-forced"
    record "$name" run --plant "$plant" --variant "$variant" --horizon 3 --alpha-bar 0.01 \
        --forced-m 2,1 --x0 0,1 --out "$out/$name" --no-timestamp
    name="run-$variant-N20-a0.01-forced15"
    record "$name" run --plant "$plant" --variant "$variant" --horizon 20 --alpha-bar 0.01 \
        --forced-m 15 --x0 0,1 --out "$out/$name" --no-timestamp
    name="sweep-$variant-N3-a0.6-cap7"
    record "$name" sweep --plant "$plant" --variant "$variant" --horizon 3 --alpha-bar 0.6 \
        --max-iterations 7 --set unit-circle:128 --out "$out/$name" --no-timestamp
done
record run-alg4-a0.5-cap5 run --plant "$plant" --variant alg4 --horizon 3 --alpha-bar 0.5 \
    --max-iterations 5 --x0 0,1 --out "$out/run-alg4-a0.5-cap5" --no-timestamp
record run-alg3-inside-radius run --plant "$plant" --variant alg3 --horizon 3 --alpha-bar 0.01 \
    --x0 1e-9,0 --out "$out/run-alg3-inside-radius" --no-timestamp

record horizon-table horizon-table --plant "$plant" --set unit-circle:128 \
    --horizons 2,3,4,5,10,20 --alpha-bar 0.01 --out "$out/horizon-table"
record horizon-table-unsorted horizon-table --plant "$plant" --set unit-circle:64 \
    --horizons 20,2,5 --alpha-bar 0.3 --out "$out/horizon-table-unsorted"
record reproduce-paper reproduce-paper --out "$out/reproduce-paper"
record riccati riccati --plant "$plant" --horizon 20 --out "$out/riccati"
# The rejected plant file lives in OUT, so its path differs between trees;
# the error message must not contain it.
{ cat "$plant"; printf 'equilibrium_state\n1 0\n'; } >"$out/nonzero-equilibrium.txt"
record riccati-nonzero-equilibrium riccati --plant "$out/nonzero-equilibrium.txt" --horizon 3

# Initial states whose first iteration overflows (see the header).
sed '/^Q$/,/^$/{s/^1 0$/1e-20 0/;s/^0 1$/0 1e-20/}' "$plant" >"$out/tiny-q.txt"
sed 's/^1 1\.1$/10 0/;s/^-1\.1 1$/0 10/;/^R$/,${s/^1$/1e10/}' "$plant" >"$out/growing.txt"
overflow_args=(run --variant alg3 --horizon 3 --alpha-bar 0.5)
record run-overflow-spiral2d "${overflow_args[@]}" --plant "$plant" --x0 1e160,0
record run-overflow-tiny-q "${overflow_args[@]}" --plant "$out/tiny-q.txt" --x0 1e160,0
record run-overflow-growing "${overflow_args[@]}" --plant "$out/growing.txt" --x0 1e152,0
# Runs that overflow after their first iteration (see the header).
diverging_args=(--variant alg1 --horizon 3 --alpha-bar 0.5)
record run-diverging-tiny-q run "${diverging_args[@]}" --plant "$out/tiny-q.txt" --x0 1,0
record sweep-diverging-growing sweep "${diverging_args[@]}" --plant "$out/growing.txt" \
    --set unit-circle:4 --out "$out/sweep-diverging-growing" --no-timestamp

# A 3-state plant on which alg2 and alg4 reject re-plans.
rejecting="$out/rejecting3.txt"
cat >"$rejecting" <<'EOF'
state_dim 3
control_dim 1
A
0.62 -0.62 -0.56
-1.21 -1.52 -1.78
0.57 1.28 0.5
B
0.29
0.29
-0.13
Q
2.8 -1.42 -1.92
-1.42 1.63 -0.06
-1.92 -0.06 6.22
R
0.66
EOF
for variant in alg2 alg4; do
    name="run-$variant-rejecting"
    record "$name" run --plant "$rejecting" --variant "$variant" --horizon 3 --alpha-bar 0.6 \
        --forced-m 2 --x0 0.39,0.99,1.04 --out "$out/$name" --no-timestamp
done

python3 -W error::RuntimeWarning - "$plant" >"$out/drop-grid.txt" <<'EOF'
import hashlib
import sys

from mpccert import value_drop_grid
from mpccert.model import load_plant
from mpccert.riccati import LqBellmanSolver, LqLadderSolver

lq = load_plant(sys.argv[1])
for law in (LqLadderSolver, LqBellmanSolver):
    for horizon, m in ((3, 1), (3, 2), (10, 1), (20, 1), (20, 10), (20, 19)):
        for n in (1, 64, 65, 101, 131):
            axis, drops = value_drop_grid(law(lq, horizon), horizon, m, n=n)
            digest = hashlib.sha256(axis.tobytes() + drops.tobytes()).hexdigest()
            print(f"{law.__name__} N={horizon} m={m} {drops.shape} {digest}")
EOF
