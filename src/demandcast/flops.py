"""Floating-point operation accounting for the benchmark report.

Convention: a multiply-accumulate counts as 2 flops, a transcendental
evaluation (tanh, exp) as 10. Counters only ever increase. Counts are
estimates of arithmetic volume, not measured hardware ops; the point is
comparability between trainers under one fixed convention.
"""

MAC_FLOPS = 2
TRANSCENDENTAL_FLOPS = 10


class FlopCounter:
    """Monotone flop counter passed into instrumented training paths."""

    def __init__(self):
        self.total = 0

    def add(self, n):
        """Count ``n`` elementary flops (adds, multiplies, compares)."""
        self.total += int(n)

    def add_mac(self, n):
        """Count ``n`` multiply-accumulate pairs."""
        self.add(MAC_FLOPS * int(n))

    def add_gemm(self, m, n, k):
        """Count an (m x k) @ (k x n) matrix product."""
        self.add(MAC_FLOPS * int(m) * int(n) * int(k))

    def add_transcendental(self, n):
        """Count ``n`` tanh/exp evaluations."""
        self.add(TRANSCENDENTAL_FLOPS * int(n))


class _Discard(FlopCounter):
    def add(self, n):
        pass


# the counter of a trainer that is given none: it keeps nothing
DISCARD = _Discard()
