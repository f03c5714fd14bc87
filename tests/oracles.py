"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's order machinery: payoffs are plain
numbers compared with ``<``/``>``, feasibility is plain set membership.
They implement the classical constrained saddle conditions directly.
"""


def saddle_solutions(n_rows, n_cols, payoff, feasible_cols, feasible_rows):
    """All (i, j) with i feasible for j, j feasible for i, payoff (i, j)
    maximal over feasible rows and minimal over feasible columns.

    payoff: {(i, j): number}; feasible_cols: {i: set of j}; feasible_rows:
    {j: set of i}.
    """
    out = []
    for i in range(n_rows):
        for j in range(n_cols):
            if i not in feasible_rows[j] or j not in feasible_cols[i]:
                continue
            v = payoff[(i, j)]
            if any(payoff[(i2, j)] > v for i2 in feasible_rows[j]):
                continue
            if any(payoff[(i, j2)] < v for j2 in feasible_cols[i]):
                continue
            out.append((i, j))
    return out


def unconstrained_saddles(n_rows, n_cols, payoff):
    cols = {i: set(range(n_cols)) for i in range(n_rows)}
    rows = {j: set(range(n_rows)) for j in range(n_cols)}
    return saddle_solutions(n_rows, n_cols, payoff, cols, rows)


def argmin_row(i, payoff, feasible):
    """Columns j in feasible attaining the row minimum of payoff(i, .)."""
    best = min(payoff[(i, j)] for j in feasible)
    return {j for j in feasible if payoff[(i, j)] == best}


def argmax_col(j, payoff, feasible):
    best = max(payoff[(i, j)] for i in feasible)
    return {i for i in feasible if payoff[(i, j)] == best}


# -- finite order completeness -------------------------------------------------
#
# A plain-Python referee for the finite-scale theorem the solver relies on:
# every finite nonempty subset is chain complete, inductive, bi-inductive and
# universally inductive.  It reads only a reflexive, transitively closed
# ``leq`` matrix (``leq[i][j]`` true iff element i <= element j) and checks
# the definitions against every chain, with elements coded as bits.


def chains(leq):
    """All nonempty chains, as index tuples listed bottom to top.

    An n-element total order has 2**n - 1 of them.
    """
    n = len(leq)
    # fewer elements below comes first: a linear extension of the order
    order = sorted(range(n), key=lambda j: sum(bool(leq[i][j]) for i in range(n)))
    out = []

    def grow(chain, rest):
        out.append(tuple(chain))
        for k, j in enumerate(rest):
            if leq[chain[-1]][j]:
                grow(chain + [j], rest[k + 1:])

    for k, i in enumerate(order):
        grow([i], order[k + 1:])
    return out


class CompletenessOracle:
    """Brute-force completeness flags of subsets of one finite poset."""

    def __init__(self, leq):
        n = len(leq)
        self.up = [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]
        self.down = [sum(1 << j for j in range(n) if leq[j][i]) for i in range(n)]
        # per chain: its members, and the elements above / below all of them
        self._rows = []
        for chain in chains(leq):
            bits, above, below = 0, (1 << n) - 1, (1 << n) - 1
            for i in chain:
                bits |= 1 << i
                above &= self.up[i]
                below &= self.down[i]
            self._rows.append((bits, above, below))

    def flags(self, members):
        """(chain_complete, inductive, bi_inductive, universally_inductive).

        chain_complete: every chain inside the subset has a least upper bound
        in it.  inductive: every such chain has an upper bound in it.
        bi_inductive: inductive for the order and its dual.
        universally_inductive: every chain of the whole poset whose elements
        each lie below some member has an upper bound among the members.
        """
        s = dominated = 0
        for i in members:
            s |= 1 << i
            dominated |= self.down[i]
        if not s:
            raise ValueError("completeness flags need a nonempty subset")
        chain_complete = inductive = dual_inductive = universally = True
        for bits, above, below in self._rows:
            if bits & ~dominated:
                continue
            bounds = above & s
            universally = universally and bool(bounds)
            if bits & ~s:
                continue
            inductive = inductive and bool(bounds)
            dual_inductive = dual_inductive and bool(below & s)
            chain_complete = chain_complete and any(
                bounds >> b & 1 and bounds & ~self.up[b] == 0
                for b in range(len(self.up))
            )
        return (chain_complete, inductive, inductive and dual_inductive, universally)
