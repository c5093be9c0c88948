"""The benchmark's workloads: fixed discriminants, levels and precisions.

A round runs four families of operations, each timed as one end-to-end
metric: "table" (one classify per level), "lvalue" (one l_value per
level), "oracle" (one oracle_l_value per level, at the lvalue levels) and
"crosscheck" (theta_form against symplectic_theta_splitcm, one per
split-CM point).  Every workload runs every family, so every run reports
every metric; each workload puts its weight on one or two families and
keeps the others to a small side slice.  Why each workload exists is
written in BENCHMARK.json and perfbench/README.md.
"""

from dataclasses import dataclass

# The paper's Table 1 (D = -7) and a prefix of its Table 2 (D = -11):
# level -> [(abs_theta, count, h_eps)], with h_R = 2 * count.
PAPER_TABLE_1 = {
    11: [(1, 1, -1)],
    23: [(1, 3, -1)],
    43: [(1, 1, 1)],
    67: [(1, 1, -1)],
    71: [(1, 7, -3)],
}
PAPER_TABLE_2 = {
    23: [(0, 2, 2), (2, 1, 1)],
    31: [(0, 2, 2), (2, 1, -1)],
    47: [(0, 3, 3), (2, 2, 2)],
    59: [(0, 2, 2), (2, 1, -1)],
    67: [(0, 0, 0), (2, 1, -1)],
    71: [(0, 4, 4), (2, 3, -3)],
}
PAPER_TABLES = {-7: PAPER_TABLE_1, -11: PAPER_TABLE_2}

TABLE_PREC = 80
THETA_PREC = 80


@dataclass(frozen=True)
class Workload:
    name: str
    stores: tuple  # discriminants whose class store set-up builds
    table: tuple  # (D, N) pairs classified at TABLE_PREC
    lvalue: tuple  # (D, N, prec): l_value, then oracle_l_value(D, N)
    crosscheck: tuple  # (D, N_max): every split-CM point of D at levels <= N_max


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table-d11",
            stores=(-11,),
            table=((-11, 23), (-11, 31)),
            lvalue=((-11, 67, TABLE_PREC),),
            crosscheck=((-11, 23),),
        ),
        Workload(
            name="lvalue-d7",
            stores=(-7,),
            table=((-7, 11),),
            lvalue=((-7, 11, 600), (-7, 43, 600)),
            crosscheck=((-7, 23),),
        ),
        Workload(
            name="theta-check",
            stores=(-7,),
            table=((-7, 11),),
            lvalue=((-7, 11, TABLE_PREC),),
            crosscheck=((-7, 43), (-11, 47)),
        ),
    )
}
