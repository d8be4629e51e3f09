"""Reversing grids: a finished trace replayed geometrically.

Positive letters run right, negative letters are climbed against
down-pointing edges, relation steps close a square with two new labelled
chains, and cancellations become unoriented epsilon arcs.  Grids for left
reversals are built from the mirrored trace, so they come out flipped
left-to-right relative to the usual picture.

Only `monorev render` and `monorev.build_grid` load this module; the
reversing kernel does not need it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .presentation import RelationInstance
from .reversing import ReversalStep, ReversalTrace, Terminal
from .words import Generator, Letter


class GridNode(NamedTuple):
    x: Fraction
    y: Fraction


class GridEdge(NamedTuple):
    tail: GridNode
    head: GridNode
    label: Generator


class EpsilonArc(NamedTuple):
    a: GridNode
    b: GridNode


class GridCell(NamedTuple):
    corner: GridNode
    rule: RelationInstance


class ReversingGrid(NamedTuple):
    side: str
    nodes: tuple[GridNode, ...]
    path_edges: tuple[GridEdge, ...]
    completion_edges: tuple[GridEdge, ...]
    epsilon_arcs: tuple[EpsilonArc, ...]
    cells: tuple[GridCell, ...]
    final_path: tuple[tuple[GridEdge, int], ...]


def _mirror_trace(trace: ReversalTrace) -> ReversalTrace:
    """Reverse letter order (signs kept): turns a left trace into a right one."""
    steps = []
    n = len(trace.start)
    for step in trace.steps:
        pos = n - 2 - step.position
        rule = step.rule
        if rule is None:
            n -= 2
        else:
            rule = RelationInstance(rule.rhs.reversed(), rule.lhs.reversed(),
                                    rule.schema, rule.bindings)
            n += len(rule.lhs) + len(rule.rhs) - 4
        steps.append(ReversalStep(pos, rule))
    outcome = trace.outcome
    if isinstance(outcome, Terminal):
        outcome = Terminal(outcome.v_prime.reversed(), outcome.u_prime.reversed())
    return ReversalTrace("right", trace.start.reversed(), tuple(steps), outcome,
                         trace.final.reversed())


def _chain(a: GridNode, b: GridNode, labels: tuple[Letter, ...], node) -> list[GridEdge]:
    k = len(labels)
    out = []
    prev = a
    for j, letter in enumerate(labels, start=1):
        if j == k:
            nxt = node(b.x, b.y)
        else:
            nxt = node(a.x + (b.x - a.x) * j / k, a.y + (b.y - a.y) * j / k)
        out.append(GridEdge(prev, nxt, letter.gen))
        prev = nxt
    return out


def build_grid(trace: ReversalTrace) -> ReversingGrid:
    """Replay a terminal or empty trace into its reversing diagram.

    Positive letters are horizontal edges pointing right; negative letters
    climb against vertical edges pointing down, so the start path rises
    from the origin and completions grow down and to the right.  A relation
    step closes the square on the redex with two interpolated chains that
    meet at the corner; a cancellation contributes an epsilon arc from the
    entry node of the first letter to the exit node of the second.
    """
    if not trace.reached_terminal:
        raise ValueError("grid requires a terminal or empty trace")
    side = trace.side
    if side == "left":
        trace = _mirror_trace(trace)
    nodes: dict[GridNode, None] = {}

    def node(x, y) -> GridNode:
        n = GridNode(Fraction(x), Fraction(y))
        nodes.setdefault(n, None)
        return n

    path: list[tuple[GridEdge, int]] = []
    path_edges: list[GridEdge] = []
    cur = node(0, 0)
    for letter in trace.start:
        if letter.sign > 0:
            nxt = node(cur.x + 1, cur.y)
            e = GridEdge(cur, nxt, letter.gen)
        else:
            nxt = node(cur.x, cur.y + 1)
            e = GridEdge(nxt, cur, letter.gen)
        path_edges.append(e)
        path.append((e, letter.sign))
        cur = nxt
    completion: list[GridEdge] = []
    arcs: list[EpsilonArc] = []
    cells: list[GridCell] = []
    for step in trace.steps:
        i = step.position
        (e1, s1), (e2, s2) = path[i], path[i + 1]
        entry1 = e1.head if s1 < 0 else e1.tail
        exit2 = e2.head if s2 > 0 else e2.tail
        if step.rule is None:
            arcs.append(EpsilonArc(entry1, exit2))
            path[i:i + 2] = []
        else:
            rule = step.rule
            corner = node(exit2.x, entry1.y)
            v_edges = _chain(entry1, corner, rule.lhs[1:], node)
            u_edges = _chain(exit2, corner, rule.rhs[1:], node)
            completion.extend(v_edges)
            completion.extend(u_edges)
            cells.append(GridCell(corner, rule))
            path[i:i + 2] = [(e, 1) for e in v_edges] + [(e, -1) for e in reversed(u_edges)]
    return ReversingGrid(side, tuple(nodes), tuple(path_edges), tuple(completion),
                         tuple(arcs), tuple(cells), tuple(path))


def grid_to_dot(grid: ReversingGrid) -> str:
    """Deterministic DOT rendering of the completed material.

    Only the edges produced by reversing appear: relation chains as
    labelled arrows, cancellations as dashed undirected arcs.  The input
    path is the caller's word and is omitted, so a pure-cancellation grid
    reduces to its arcs.
    """
    used: set[GridNode] = set()
    for e in grid.completion_edges:
        used.add(e.tail)
        used.add(e.head)
    for a in grid.epsilon_arcs:
        used.add(a.a)
        used.add(a.b)
    index = {n: i for i, n in enumerate(sorted(used))}
    lines = ["digraph reversing_grid {", "  node [shape=point];"]
    edges = sorted(grid.completion_edges,
                   key=lambda e: (index[e.tail], index[e.head], str(e.label)))
    for e in edges:
        lines.append(f'  n{index[e.tail]} -> n{index[e.head]} [label="{e.label}"];')
    for a in sorted(grid.epsilon_arcs, key=lambda a: (index[a.a], index[a.b])):
        lines.append(f"  n{index[a.a]} -> n{index[a.b]} [style=dashed, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"
