"""Joint retiming and discrete slack budgeting via min-cost circulation."""

from .circuit import (Circuit, CircuitError, Edge, Gate, generate_random,
                      parse_circuit, render_circuit, sta)
from .exact import OracleResult, brute_force
from .mcf import (FlowSolution, SolverError, residual_potentials, solve_mcf,
                  ssp_oracle)
from .power import (CurveError, PowerSlackCurve, breakpoints, load_curves,
                    make_curve)
from .recovery import (BudgetResult, InfeasiblePeriodError, RecoveryError,
                       SlackAssignment, finalize, recover_duals,
                       recover_slacks, run_pipeline, snap_levels)
from .retime import RetimingError, feasible_retiming, min_period
from .transform import (DualGraph, FlowNetwork, TransformError, expand,
                        split_graph)

__version__ = "0.1.0"
