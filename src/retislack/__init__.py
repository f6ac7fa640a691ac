"""Joint retiming and discrete slack budgeting via min-cost circulation.

The package exports the pipeline's front door: inputs, entry points, results
and errors.  The stages of `run_pipeline` are imported from their modules.
"""

from .circuit import (Circuit, CircuitError, Edge, Gate, generate_random,
                      parse_circuit, render_circuit, sta)
from .exact import OracleResult, brute_force
from .mcf import SolverError
from .power import CurveError, PowerSlackCurve, load_curves, make_curve
from .recovery import (BudgetResult, InfeasiblePeriodError, RecoveryError,
                       SlackAssignment, run_pipeline)
from .retime import RetimingError, feasible_retiming, min_period
from .transform import TransformError

__version__ = "0.1.0"
