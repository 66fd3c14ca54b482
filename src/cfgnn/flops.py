"""Floating-point operation accounting.

Convention: one multiply or one add is one FLOP.  Divisions, square roots,
exponentials and logarithms are tallied as multiplies.  Reductions count one
add per accumulated term (zero-initialised accumulator), so a length-n dot
product costs n multiplies plus n adds.  Comparisons, copies and index
arithmetic are free.

Counts are recorded at runtime from the actual shapes of the executed numpy
operations, so a counted run reflects what the vectorised implementation
really does (including work on masked-out entries that the kernels still
touch).  The test suite cross-checks the network's counts against a
closed-form model written from the op definitions, which lives in
`tests/oracle.py`; the two must agree to within about a percent.

Every kernel reports to a counter unconditionally, so counted and uncounted
runs execute the same statements.  The public entry points that take
`counter=None` (`engine.forward`, `engine.project_powers`,
`maxmin.solve_maxmin`) put a fresh `NoCounter` in its place.  Every tally
method goes through the two primitives `mul` and `add`, and `NoCounter`
overrides only those two to do nothing, so only this module decides whether
tallies are kept.  Callers pass Python ints (sizes and shape products), so
the tallies stay Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FlopCounter:
    """Mutable tally of multiplies and adds, plus the solver's silent
    events: Newton systems solved, structured steps that failed and went to
    the dense step, regularised retries of a singular or non-descent dense
    system, steepest-descent fallbacks once every retry failed,
    feasibility probes answered by the SINR bound without a Newton system
    (probes_certified), and probes answered infeasible by the solver's
    Lagrangian bound, at probe entry or between Newton systems
    (probes_dual_certified)."""

    multiplies: int = 0
    adds: int = 0
    newton_systems: int = 0
    newton_dense_fallbacks: int = 0
    newton_retries: int = 0
    newton_fallbacks: int = 0
    probes_certified: int = 0
    probes_dual_certified: int = 0

    @property
    def total(self) -> int:
        return self.multiplies + self.adds

    def mul(self, n: int) -> None:
        self.multiplies += n

    def add(self, n: int) -> None:
        self.adds += n

    def dot(self, n: int, count: int = 1) -> None:
        """`count` dot products of length n."""
        self.mul(n * count)
        self.add(n * count)

    def matmul(self, m: int, n: int, p: int) -> None:
        """(m, n) @ (n, p): m*p dot products of length n."""
        self.dot(n, m * p)

    def linear(self, batch: int, fan_in: int, fan_out: int) -> None:
        """Affine map with bias on `batch` vectors: batch*(2*fan_in + 1)*fan_out."""
        self.dot(fan_in, batch * fan_out)
        self.add(batch * fan_out)

    def solve_lu(self, n: int, rhs: int = 1) -> None:
        """Dense LU factorisation plus triangular solves for an n x n system."""
        work = (n * n * n) // 3 + rhs * n * n
        self.mul(work)
        self.add(work)


class NoCounter(FlopCounter):
    """The counter of an uncounted run: the two primitives every tally goes
    through do nothing.  Event fields such as `newton_retries` still count,
    on an object that no caller reads."""

    def mul(self, n: int) -> None:
        pass

    def add(self, n: int) -> None:
        pass


def counting(counter: FlopCounter | None) -> FlopCounter:
    """`counter`, or a fresh NoCounter for an uncounted run."""
    return NoCounter() if counter is None else counter
