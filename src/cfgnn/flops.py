"""Floating-point operation accounting.

Convention: one multiply or one add is one FLOP.  Divisions, square roots,
exponentials and logarithms are tallied as multiplies.  Reductions count one
add per accumulated term (zero-initialised accumulator), so a length-n dot
product costs n multiplies plus n adds.  Comparisons, copies and index
arithmetic are free.

Counts are recorded at runtime from the actual shapes of the executed numpy
operations, so a counted run reflects what the vectorised implementation
really does (including work on masked-out entries that the kernels still
touch).  A separate closed-form model for the network forward pass lives in
`gnn_forward_flops`; the two views are required to agree to within about a
percent and tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class FlopCounter:
    """Mutable tally of multiplies and adds, plus the solver's silent Newton
    events: regularised retries of a singular or non-descent system, and
    steepest-descent fallbacks once every retry failed."""

    multiplies: int = 0
    adds: int = 0
    newton_retries: int = 0
    newton_fallbacks: int = 0

    @property
    def total(self) -> int:
        return self.multiplies + self.adds

    def mul(self, n: int) -> None:
        self.multiplies += int(n)

    def add(self, n: int) -> None:
        self.adds += int(n)

    def dot(self, n: int, count: int = 1) -> None:
        """`count` dot products of length n."""
        self.multiplies += int(n) * int(count)
        self.adds += int(n) * int(count)

    def matmul(self, m: int, n: int, p: int) -> None:
        """(m, n) @ (n, p): m*p dot products of length n."""
        self.dot(n, m * p)

    def linear(self, batch: int, fan_in: int, fan_out: int) -> None:
        """Affine map with bias on `batch` vectors: batch*(2*fan_in + 1)*fan_out."""
        self.dot(fan_in, batch * fan_out)
        self.adds += batch * fan_out

    def solve_lu(self, n: int, rhs: int = 1) -> None:
        """Dense LU factorisation plus triangular solves for an n x n system."""
        third = (n * n * n) // 3
        self.multiplies += third + rhs * n * n
        self.adds += third + rhs * n * n


def gnn_forward_flops(plan, num_aps: int, num_ues: int) -> FlopCounter:
    """Closed-form FLOPs of one forward pass plus projection.

    Written directly from the op definitions (not by calling the engine), so
    it cross-checks the instrumented counts.  Per transformer transition with
    widths n_in -> n_out, C heads of size d = n_out / C, and for each edge
    type with G groups of N members:

        four affine maps        4 * G*N * (2*n_in*n_out + n_out)
        attention logits        G*C*N^2 * (2d + 1)      (dot + scale)
        softmax                 G*C*N^2 * 4             (max-sub, exp, sum, div)
        weighted value sum      G*C*N^2 * 2d
        self + aggregate        G*N*n_out

    attention terms apply only when N > 1; singleton groups (M = 1 or
    K = 1) reduce to the self map alone, so only one affine map.  Both
    types together contribute the G*N^2 = MK(M + K) edge factor that gives
    the O(MK(M+K)) scaling.  Layer norm costs (7*n_out + 4) adds+muls per
    node, the two-type sum n_out adds, the output map 2*n_last + 1 per node,
    and the projection denormalises every entry and renormalises every row
    once with a second verification pass of row sums.
    """
    counter = FlopCounter()
    m, k = num_aps, num_ues
    nodes = m * k
    heads = plan.heads
    for t in range(plan.transformer_transitions):
        n_in, n_out = plan.sizes[t], plan.sizes[t + 1]
        d = plan.head_dim(t)
        for grp, nmem in ((m, k), (k, m)):
            maps = 4 if nmem > 1 else 1   # singleton groups need only the self map
            counter.multiplies += maps * grp * nmem * n_in * n_out
            counter.adds += maps * grp * nmem * (n_in * n_out + n_out)
            if nmem > 1:
                pairs = grp * heads * nmem * nmem
                counter.multiplies += pairs * (d + 1)       # logit dots, scale
                counter.adds += pairs * d
                counter.multiplies += pairs * 2             # exp, divide
                counter.adds += pairs * 2                   # max-sub, sum
                counter.multiplies += pairs * d             # value weighting
                counter.adds += pairs * d
                counter.adds += grp * nmem * n_out          # self + aggregate
        counter.adds += nodes * n_out                       # f_ap + f_ue
        counter.multiplies += nodes * (3 * n_out + 3)       # layer norm
        counter.adds += nodes * (4 * n_out + 1)
    n_last = plan.sizes[-2]
    counter.multiplies += nodes * n_last                    # output map
    counter.adds += nodes * (n_last + 1)
    counter.multiplies += 2 * nodes                         # denorm scale, exp2
    counter.adds += nodes                                   # denorm shift
    counter.adds += 2 * nodes                               # two row-sum passes
    counter.multiplies += m + nodes                         # row renormalise
    return counter
