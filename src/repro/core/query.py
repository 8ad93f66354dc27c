"""Named-binding queries: the DSL meets the engine.

``CSCE.query("(a:P)-[:knows]-(b:P)")`` parses the pattern expression,
matches it, and returns rows keyed by the *names* used in the expression —
the ergonomic surface a graph-database user expects (Section II's framing
of subgraph matching as the fundamental graph-database query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.variants import Variant
from repro.engine.results import MatchResult
from repro.graph.dsl import parse_pattern
from repro.graph.model import Graph


@dataclass
class QueryResult:
    """Match results projected onto the pattern expression's names.

    Iterable: yields one ``{name: data vertex}`` dict per embedding.
    Anonymous pattern vertices participate in matching but are dropped
    from the rows (like unreturned Cypher variables).
    """

    pattern: Graph
    bindings: dict[str, int]
    match_result: MatchResult
    rows: list[dict[str, int]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return self.match_result.count

    @property
    def truncated(self) -> bool:
        return self.match_result.truncated

    @property
    def timed_out(self) -> bool:
        return self.match_result.timed_out

    @property
    def columns(self) -> list[str]:
        return sorted(self.bindings)

    def __iter__(self) -> Iterator[dict[str, int]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def distinct(self, *names: str) -> set[tuple]:
        """Distinct value tuples of the given columns."""
        if not names:
            names = tuple(self.columns)
        return {tuple(row[name] for name in names) for row in self.rows}

    def __repr__(self) -> str:
        return (
            f"<QueryResult {len(self.rows)} rows,"
            f" columns={self.columns}>"
        )


def run_query(
    engine,
    text: str,
    variant: Variant | str = Variant.EDGE_INDUCED,
    **match_kwargs,
) -> QueryResult:
    """Parse ``text`` and run it on ``engine`` (a :class:`CSCE`).

    Extra keyword arguments go straight to ``engine.match`` — limits, time
    budgets, restrictions, and seeds all work. Seeds may be given by *name*
    (``seed={"a": 4}``) or by pattern vertex id.
    """
    pattern, bindings = parse_pattern(text)
    seed = match_kwargs.get("seed")
    if seed:
        resolved = {}
        for key, value in seed.items():
            if isinstance(key, str):
                try:
                    resolved[bindings[key]] = value
                except KeyError:
                    raise KeyError(
                        f"seed name {key!r} does not appear in the query"
                    ) from None
            else:
                resolved[key] = value
        match_kwargs["seed"] = resolved
    result = engine.match(pattern, variant, **match_kwargs)
    rows = []
    if result.embeddings is not None:
        for mapping in result.embeddings:
            rows.append({name: mapping[v] for name, v in bindings.items()})
    return QueryResult(
        pattern=pattern,
        bindings=bindings,
        match_result=result,
        rows=rows,
    )
