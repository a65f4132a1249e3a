"""Maximum-clique kernel on arbitrary-precision int bitsets.

Branch-and-bound with a greedy-coloring upper bound.  Subtrees are pruned
only when they cannot even TIE the incumbent, so every maximum clique
stays reachable and the incumbent update rule (strictly larger wins;
equal size wins only if lexicographically smaller in original vertex ids)
makes the result the lexicographically smallest maximum clique.
"""

from __future__ import annotations

import time

_DEADLINE_CHECK_INTERVAL = 4096


class _Expired(Exception):
    pass


class _Search:
    def __init__(self, neighbors, orig_ids, deadline):
        self.neighbors = neighbors
        self.orig_ids = orig_ids
        self.deadline = deadline
        self.nodes = 0
        self.best_size = 0
        self.best = ()

    def seed(self, clique):
        self.best_size = len(clique)
        self.best = tuple(sorted(self.orig_ids[v] for v in clique))

    def _tick(self):
        self.nodes += 1
        if self.nodes % _DEADLINE_CHECK_INTERVAL == 0 and time.monotonic() > self.deadline:
            raise _Expired

    def _offer(self, stack):
        if len(stack) < self.best_size:
            return
        ids = tuple(sorted(self.orig_ids[v] for v in stack))
        if len(stack) > self.best_size or ids < self.best:
            self.best_size = len(stack)
            self.best = ids

    def _color(self, P):
        """Greedy coloring; returns vertices with nondecreasing color."""
        order = []
        colors = []
        uncolored = P
        color = 0
        while uncolored:
            color += 1
            q = uncolored
            while q:
                v = (q & -q).bit_length() - 1
                order.append(v)
                colors.append(color)
                bit = 1 << v
                uncolored ^= bit
                q = (q ^ bit) & ~self.neighbors[v]
        return order, colors

    def expand(self, stack, P):
        self._tick()
        order, colors = self._color(P)
        neighbors = self.neighbors
        for idx in range(len(order) - 1, -1, -1):
            if len(stack) + colors[idx] < self.best_size:
                return
            v = order[idx]
            stack.append(v)
            new_p = P & neighbors[v]
            if new_p:
                if len(stack) + new_p.bit_count() >= self.best_size:
                    self.expand(stack, new_p)
            else:
                self._offer(stack)
            stack.pop()
            P &= ~(1 << v)


def run_search(neighbors, orig_ids, seed_clique, deadline):
    """Search the whole graph; returns (clique original ids, completed)."""
    search = _Search(neighbors, orig_ids, deadline)
    search.seed(seed_clique)
    n = len(neighbors)
    full = (1 << n) - 1
    try:
        if n:
            search.expand([], full)
        return list(search.best), True
    except _Expired:
        return list(search.best), False
