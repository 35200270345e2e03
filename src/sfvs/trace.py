"""Rule-application traces shared by the kernel and the solver.

Every rule firing is recorded as one :class:`TraceEntry` describing exactly
what the rule did to the instance: which vertices and edges were deleted,
which vertices were committed to the solution, and how the budget changed.
A trace therefore doubles as a replayable edit script; tests replay traces
against the input instance and require the result to match the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEntry:
    """A single rule application.

    ``picked`` lists vertices committed to the solution by this step; they
    are always a subset of ``deleted_vertices``.  ``delta_k`` is the change
    applied to the budget, so a step that picks p vertices has
    ``delta_k == -p``.
    """

    rule: str
    deleted_vertices: tuple[int, ...] = ()
    deleted_edges: tuple[tuple[int, int], ...] = ()
    picked: tuple[int, ...] = ()
    delta_k: int = 0

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "deleted_vertices": list(self.deleted_vertices),
            "deleted_edges": [list(e) for e in self.deleted_edges],
            "picked": list(self.picked),
            "delta_k": self.delta_k,
        }


def make_entry(rule, deleted_vertices=(), deleted_edges=(), picked=(), delta_k=0):
    """Build a normalized entry: members sorted, edges as sorted pairs."""
    edges = tuple(sorted(tuple(sorted(e)) for e in deleted_edges))
    return TraceEntry(
        rule=rule,
        deleted_vertices=tuple(sorted(deleted_vertices)),
        deleted_edges=edges,
        picked=tuple(sorted(picked)),
        delta_k=delta_k,
    )


@dataclass
class RuleTrace:
    """Ordered record of every rule applied to an instance."""

    steps: list[TraceEntry] = field(default_factory=list)

    def add(self, rule, deleted_vertices=(), deleted_edges=(), picked=(), delta_k=0):
        entry = make_entry(rule, deleted_vertices, deleted_edges, picked, delta_k)
        self.steps.append(entry)
        return entry

    def rules(self) -> list[str]:
        return [s.rule for s in self.steps]

    def picked_vertices(self) -> set[int]:
        out = set()
        for s in self.steps:
            out |= set(s.picked)
        return out

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def replay(instance, trace):
    """Apply every step of ``trace`` to a copy of ``instance``.

    Returns the edited instance.  Used by tests to confirm that a trace is a
    faithful edit script for the transformation it records.
    """
    work = instance.copy()
    for step in trace:
        for u, v in step.deleted_edges:
            work.graph.remove_edge(u, v)
        if step.deleted_vertices:
            work.remove_vertices(step.deleted_vertices)
        work.k += step.delta_k
    return work
