"""Fixed inputs shared by the benchmark and its reference generator."""

import math

WORKLOADS = ("eigs-kamke", "ivp-kamke", "cli-build")

#: Grid size of the Kamke coefficient set.
GRID_M = 2001

#: Separated boundary pairs (a1, a2, b1, b2) of the eigs-kamke requests.
BOUNDARY_PAIRS = {
    "robin": (1.0, -1.0, 1.0, 1.0),  # the pair kamke_problem() carries
    "dirichlet": (1.0, 0.0, 1.0, 0.0),
    "neumann": (0.0, 1.0, 0.0, 1.0),
    "mixed": (1.0, 0.0, 0.0, 1.0),  # Dirichlet at A, Neumann at B
}

#: Omegas of the stored IVP references, all with u(A) = u'(A) = 1.
CHECK_OMEGAS = (10.0, 50.0, 200.0, 1000.0, 2000.0, 30 + 1.5j, 400 + 0.8j)

#: Keep every NODE_STRIDE-th grid node of a reference solution.
NODE_STRIDE = 20

#: Transformed length int_0^2 sqrt(r/p) dy = int_0^2 sqrt(y^2 + 1) dy of the
#: Kamke problem, in closed form; pi/KAMKE_LENGTH is the asymptotic spacing
#: of sqrt-eigenvalues.
KAMKE_LENGTH = math.sqrt(5.0) + math.asinh(2.0) / 2.0

#: Median seconds of one SpeedProbe kernel (bench/workloads.py) on the
#: 2-core machine the benchmark was defined on; time metrics are scaled to
#: this speed.
PROBE_REF_S = 0.0215
