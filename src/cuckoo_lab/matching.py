"""Deterministic bipartite-graph kernel: the maximum matching size of a
random graph, by augmenting paths or, when every key has at most two
choices, by counting the trees of its cuckoo graph.

Left vertices model hashed elements, right vertices model bins.  One
augmenting-path search, :func:`augment`, is the matching kernel: the
cuckoo table places a key with it, and :func:`max_matching` runs it over
a graph's keys, but only for a key none of whose choices is empty.  A key
with a free choice takes the first one in choice order without a search,
which is the one-bin chain the search itself would return; that is 90-98%
of the keys at load 1/2 and 71-77% at load 1 (10 synthetic streams each
for d = 2, d = 3 and two banks, m = 1000).  Both callers own one mark
list with an entry per bin, which holds the dead bins between searches
and the search's own marks during one, so each bin the search reaches
costs one list index.
:func:`mu_via_columns` reaches the same size for keys of at most two
choices, given as two endpoint columns, with one union-find and no search;
:func:`mu_via_deficit` feeds it a graph's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite multigraph given by per-left-vertex choice lists.

    ``choices[u]`` holds the right-vertex indices chosen by left vertex
    ``u``; repeats are allowed and represent parallel edges.
    """

    n: int
    m: int
    choices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError("vertex counts must be non-negative")
        if len(self.choices) != self.n:
            raise ValueError(f"expected {self.n} choice lists, got {len(self.choices)}")
        m = self.m
        for row in self.choices:
            for c in row:
                if not 0 <= c < m:
                    raise ValueError(f"choice {c} outside [0, {m})")

    def max_left_degree(self) -> int:
        return max(map(len, self.choices), default=0)


def augment(
    bins: list, mark: list[int], choices: Sequence[int], marked: Optional[list[int]] = None
) -> Optional[list[int]]:
    """Free one of ``choices`` by a chain of displacements: the one
    augmenting-path search of the package, run by the cuckoo table and by
    :func:`max_matching` for a key whose choices are all occupied, and by
    the table for the stashed key it promotes after a remove, which may
    choose the emptied bin itself.

    ``bins[b]`` is None or an ``(item, item_choices)`` pair.  ``mark`` is
    the caller's list of one entry per bin: 0 for a bin the search may
    enter, and -1 for a dead bin, an occupied one from which no chain
    reaches an empty bin.  A breadth-first search over the occupants'
    choices, skipping dead bins and stopping at the first empty bin, finds
    the shortest chain; while it runs, ``mark[b]`` of a bin it reached is
    the bin it came from plus 2, or 1 for a root.  It shifts each occupant
    along the chain one hop towards the empty bin and returns the chain,
    root first: ``bins[chain[0]]`` is then None, to be filled by the
    caller, and ``bins[chain[i]]`` (i >= 1) holds what moved there.  A
    free root ends the search before it writes a mark, and a longer chain
    sets every mark it wrote back to 0.  When no chain exists it marks
    every bin it visited -1, appends them in visit order to ``marked``
    when one is given (none of them was dead before), and returns None.
    The dead bins are closed under the occupants' choices, so a successful
    search never passes through a dead bin and never changes one; only
    emptying a dead bin can revive dead bins.
    """
    for b in choices:
        if bins[b] is None:
            return [b]
    # the bins reached, in order: a repeated root keeps its first place, as
    # it expands to nothing new; the loop reads the list as it grows
    queue: list[int] = []
    for b in choices:
        if not mark[b]:
            mark[b] = 1
            queue.append(b)
    for b in queue:
        for nb in bins[b][1]:
            if mark[nb]:
                continue
            if bins[nb] is None:
                chain = [nb, b]
                while (b := mark[b] - 2) >= 0:
                    chain.append(b)
                for r in queue:
                    mark[r] = 0
                chain.reverse()
                for i in range(len(chain) - 1, 0, -1):
                    bins[chain[i]] = bins[chain[i - 1]]
                bins[chain[0]] = None
                return chain
            mark[nb] = b + 2
            queue.append(nb)
    for b in queue:
        mark[b] = -1
    if marked is not None:
        marked.extend(queue)
    return None


def max_matching(graph: BipartiteGraph) -> tuple[int, tuple[Optional[int], ...]]:
    """Maximum-cardinality matching, by inserting keys 0..n-1 into m
    unit bins as the cuckoo table does: a key takes its first empty choice,
    and only a key with none runs :func:`augment`.

    A key that finds no augmenting path when it arrives never gains one
    later (Kuhn's argument), and no bin is ever emptied, so a bin once
    marked dead stays dead, and one mark list serves every key.  The
    matched set is read off the bins and is a pure function of the graph.

    Returns the matching size and, per left vertex, its matched right
    vertex (or None).
    """
    bins: list = [None] * graph.m
    mark = [0] * graph.m
    for u, row in enumerate(graph.choices):
        for b in row:
            if bins[b] is None:
                bins[b] = (u, row)
                break
        else:
            chain = augment(bins, mark, row)
            if chain is not None:
                bins[chain[0]] = (u, row)
    matched: list[Optional[int]] = [None] * graph.n
    for b, slot in enumerate(bins):
        if slot is not None:
            matched[slot[0]] = b
    return graph.n - matched.count(None), tuple(matched)


def mu_via_deficit(graph: BipartiteGraph) -> int:
    """Maximum matching size of a graph with left degrees <= 2: the tree
    count of :func:`mu_via_columns` over the edges ``(row[0], row[-1])``,
    so a one-choice key is a loop, and a key with no choice is no edge."""
    choices = graph.choices
    if graph.max_left_degree() > 2:
        u = next(u for u, row in enumerate(choices) if len(row) > 2)
        raise ValueError(f"left vertex {u} has degree {len(choices[u])} > 2")
    rows = [row for row in choices if row]
    return mu_via_columns(graph.m, [row[0] for row in rows], [row[-1] for row in rows])


def mu_via_columns(m: int, xs: Sequence[int], ys: Sequence[int]) -> int:
    """Maximum matching size of the keys whose choices are the bins
    ``xs[u]`` and ``ys[u]``, each in [0, m) (unchecked): m minus the number
    of trees in the cuckoo graph, whose vertices are the bins and whose
    edges are the keys.  A one-choice key, ``ys[u] == xs[u]``, is a loop.
    A component with a cycle or a loop matches all its bins; a tree, an
    isolated bin included, leaves exactly one spare.  One union-find counts
    the trees, with no search: every bin starts as a tree, and an edge
    removes one unless it joins two components that already have a cycle.
    ``parent[b]`` is b's parent bin, or for a root -1 (a tree) or -2 (a
    cycle or a loop), so a root's find also reads its flag.
    """
    parent = [-1] * m
    trees = m
    for a, b in zip(xs, ys):
        # each root is found with path halving; fa and fb end as the flags
        while (fa := parent[a]) >= 0:
            parent[a] = a = fa if (g := parent[fa]) < 0 else g
        while (fb := parent[b]) >= 0:
            parent[b] = b = fb if (g := parent[fb]) < 0 else g
        if a == b:
            fb = -2  # the edge closes a cycle
        else:
            parent[b] = a
        if fa == -1:  # a takes b's flag
            parent[a] = fb
            trees -= 1
        elif fb == -1:
            trees -= 1
    return m - trees
