"""Exception hierarchy shared by all engines, mapped to CLI exit codes."""

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_QUBIT_BUDGET = 4


class QvarError(Exception):
    """Base class; carries the CLI exit code for the failure class."""

    exit_code = EXIT_NUMERICAL


class ConfigError(QvarError):
    """Bad user input: config file contents, parameter ranges, shapes."""

    exit_code = EXIT_CONFIG


class NumericalError(QvarError):
    """A numerical procedure failed: singular pivot, non-convergence,
    post-selection probability below floor, empty tail set, overflow."""

    exit_code = EXIT_NUMERICAL


class QubitBudgetError(QvarError):
    """A register layout or grid would exceed the simulator qubit cap."""

    exit_code = EXIT_QUBIT_BUDGET
