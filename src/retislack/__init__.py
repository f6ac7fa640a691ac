"""Joint retiming and discrete slack budgeting via min-cost circulation.

The package exports the pipeline's front door: inputs, entry points, results
and errors.  The stages of `run_pipeline` are imported from their modules.

`import retislack` runs only the input layer, `circuit` and `power`.  Every
other front-door name, and the stage modules `retime`, `transform`, `mcf`,
`recovery` and `exact` as attributes, load on first use (PEP 562), so a
process that only reads, renders or generates circuits, and the console
script's `sta` command, never imports them.
"""

from importlib import import_module as _import_module

from . import circuit, power

__version__ = "0.1.0"

# front-door name -> the module that defines it, in the README's order
_FRONT_DOOR = {
    "parse_circuit": "circuit", "render_circuit": "circuit",
    "generate_random": "circuit", "Circuit": "circuit", "Gate": "circuit",
    "Edge": "circuit", "load_curves": "power", "make_curve": "power",
    "PowerSlackCurve": "power",
    "run_pipeline": "recovery", "sta": "circuit", "min_period": "retime",
    "feasible_retiming": "retime", "brute_force": "exact",
    "BudgetResult": "recovery", "SlackAssignment": "recovery",
    "OracleResult": "exact",
    "CircuitError": "circuit", "CurveError": "power",
    "RetimingError": "retime", "TransformError": "transform",
    "SolverError": "mcf", "RecoveryError": "recovery",
    "InfeasiblePeriodError": "recovery", "OracleError": "exact",
}
__all__ = list(_FRONT_DOOR)


def __getattr__(name):
    """Import a stage module, or a front-door name's module, on first use."""
    if name in _FRONT_DOOR.values():
        return _import_module(f".{name}", __name__)
    if name not in _FRONT_DOOR:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_FRONT_DOOR[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    """The module's names, plus the front-door names and stage modules not
    loaded yet."""
    return sorted({*globals(), *__all__, *_FRONT_DOOR.values()})
