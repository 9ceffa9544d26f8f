import os
import sys
from pathlib import Path

# Pin BLAS and OpenMP pools to one thread before numpy loads, as the
# benchmark does: on the solvers' small matrices thread hand-offs cost more
# than they save.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).parent))
