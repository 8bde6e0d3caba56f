"""compsearch: exact simulation and refutation of a comparison-gate search circuit.

The circuit pairs two n-qubit registers, applies a phase oracle to the
second and couples the registers with two-qubit comparison gates.  This
package simulates it over an exact dyadic sqrt(2) ring (and a float
backend), reconstructs every intermediate state from its closed form,
and verifies that the output is always the diagonal state whose
measurement statistics are independent of the oracle -- so the circuit
reveals nothing about the marked elements, in contrast to Grover search.
"""

from .dyadic import DyadicReal
from .state import (
    BACKENDS,
    EXACT,
    FLOAT,
    FLOAT_ATOL,
    BooleanOracle,
    StateVector,
    random_oracle,
)
from .gates import (
    Gate,
    apply_gate1,
    apply_gate2,
    apply_phase_oracle,
    comparison_gate,
    hadamard,
)
from .circuit import (
    CHECKPOINT_LABELS,
    PSI0,
    PSI1,
    PSI2,
    PSI2A,
    PSI3,
    Checkpoint,
    Circuit,
    GatePlacement,
    PhaseOraclePlacement,
    Trace,
    build_comparison_search,
    build_grover,
    grover_optimal_iterations,
    run,
    run_with_trace,
    simulate,
)
from .analytic import (
    psi0,
    psi1,
    psi2,
    psi2a,
    psi3,
    target_output,
)
from .refutation import (
    Distribution,
    GroverComparison,
    RNG_ALGORITHM,
    SweepReport,
    check_oracle,
    compare_grover,
    distribution,
    marginal,
    sample_distribution,
    sweep_all_f,
    tv_distance,
)

__version__ = "0.1.0"
