"""Linear-program container used by the analog LP substrate.

The canonical form handled here is

    minimize    c' x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lower <= x <= upper

which covers both the max-flow LP (Equation 7 of the paper, after negating
the objective) and the min-cut LP (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import AlgorithmError, ConfigurationError

__all__ = ["LinearProgram"]


@dataclass
class LinearProgram:
    """An LP instance in canonical minimisation form.

    Attributes
    ----------
    objective:
        Cost vector ``c`` (length ``n``).
    inequality_matrix, inequality_rhs:
        ``A_ub x <= b_ub`` (may be empty).
    equality_matrix, equality_rhs:
        ``A_eq x == b_eq`` (may be empty).
    lower_bounds, upper_bounds:
        Variable bounds; ``None`` entries mean unbounded, and scalar values
        broadcast to all variables.
    names:
        Optional variable names used in reports.
    """

    objective: np.ndarray
    inequality_matrix: Optional[np.ndarray] = None
    inequality_rhs: Optional[np.ndarray] = None
    equality_matrix: Optional[np.ndarray] = None
    equality_rhs: Optional[np.ndarray] = None
    lower_bounds: Optional[np.ndarray] = None
    upper_bounds: Optional[np.ndarray] = None
    names: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float).ravel()
        n = self.num_variables
        if n == 0:
            raise ConfigurationError("an LP needs at least one variable")

        def as_matrix(matrix, rhs, label):
            if matrix is None and rhs is None:
                return None, None
            if matrix is None or rhs is None:
                raise ConfigurationError(f"{label} matrix and rhs must be given together")
            matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
            rhs = np.asarray(rhs, dtype=float).ravel()
            if matrix.shape[1] != n:
                raise ConfigurationError(
                    f"{label} matrix has {matrix.shape[1]} columns, expected {n}"
                )
            if matrix.shape[0] != rhs.shape[0]:
                raise ConfigurationError(f"{label} matrix and rhs sizes disagree")
            return matrix, rhs

        self.inequality_matrix, self.inequality_rhs = as_matrix(
            self.inequality_matrix, self.inequality_rhs, "inequality"
        )
        self.equality_matrix, self.equality_rhs = as_matrix(
            self.equality_matrix, self.equality_rhs, "equality"
        )

        def as_bound(bound, default):
            if bound is None:
                return np.full(n, default)
            array = np.asarray(bound, dtype=float)
            if array.ndim == 0:
                return np.full(n, float(array))
            if array.shape != (n,):
                raise ConfigurationError("bounds must be scalars or length-n vectors")
            return array.astype(float)

        self.lower_bounds = as_bound(self.lower_bounds, -np.inf)
        self.upper_bounds = as_bound(self.upper_bounds, np.inf)
        if np.any(self.lower_bounds > self.upper_bounds):
            raise ConfigurationError("a lower bound exceeds its upper bound")
        if self.names is not None and len(self.names) != n:
            raise ConfigurationError("variable name list has the wrong length")

    # ------------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return int(self.objective.shape[0])

    @property
    def num_inequalities(self) -> int:
        """Number of inequality constraints."""
        return 0 if self.inequality_matrix is None else int(self.inequality_matrix.shape[0])

    @property
    def num_equalities(self) -> int:
        """Number of equality constraints."""
        return 0 if self.equality_matrix is None else int(self.equality_matrix.shape[0])

    def objective_value(self, x: np.ndarray) -> float:
        """Evaluate ``c' x``."""
        return float(np.dot(self.objective, np.asarray(x, dtype=float)))

    def constraint_violation(self, x: np.ndarray) -> float:
        """Largest constraint/bound violation at ``x`` (0 when feasible)."""
        x = np.asarray(x, dtype=float)
        worst = 0.0
        if self.inequality_matrix is not None:
            worst = max(worst, float(np.max(self.inequality_matrix @ x - self.inequality_rhs, initial=0.0)))
        if self.equality_matrix is not None:
            worst = max(worst, float(np.max(np.abs(self.equality_matrix @ x - self.equality_rhs), initial=0.0)))
        worst = max(worst, float(np.max(self.lower_bounds - x, initial=0.0)))
        worst = max(worst, float(np.max(x - self.upper_bounds, initial=0.0)))
        return worst

    def is_feasible(self, x: np.ndarray, tolerance: float = 1e-6) -> bool:
        """True when ``x`` satisfies every constraint within ``tolerance``."""
        return self.constraint_violation(x) <= tolerance

    # ------------------------------------------------------------------

    def solve_reference(self, method: str = "highs") -> np.ndarray:
        """Exact solution via :func:`scipy.optimize.linprog` (raises on failure)."""
        bounds = [
            (
                None if not np.isfinite(lo) else float(lo),
                None if not np.isfinite(hi) else float(hi),
            )
            for lo, hi in zip(self.lower_bounds, self.upper_bounds)
        ]
        from scipy.optimize import linprog

        outcome = linprog(
            c=self.objective,
            A_ub=self.inequality_matrix,
            b_ub=self.inequality_rhs,
            A_eq=self.equality_matrix,
            b_eq=self.equality_rhs,
            bounds=bounds,
            method=method,
        )
        if not outcome.success:
            raise AlgorithmError(f"reference LP solve failed: {outcome.message}")
        return np.asarray(outcome.x, dtype=float)
