"""Standing queries over an evolving graph (offline/online workflow).

The paper's workflow (Fig. 2) builds the CCSR store offline to serve every
later task; graph databases additionally need updates and *continuous*
queries (the Graphflow setting). This example exercises all three:

1. build a store, persist it, reload it (pay clustering once);
2. register a standing pattern query;
3. stream edge insertions/removals and receive only the embedding deltas
   (counted; the mappings an update creates or destroys are listed
   through the seeded primitive, ``engine.match(pattern, seed=...)``).

Run with:  python examples/continuous_queries.py
"""

import os
import tempfile

from repro.ccsr import CCSRStore, load_store, save_store
from repro.core import CSCE, ContinuousMatcher
from repro.graph import Graph, pattern

# ---------------------------------------------------------------------------
# 1. Offline: cluster the data graph once and persist the store.
# ---------------------------------------------------------------------------
graph = Graph(name="collab")
people = graph.add_vertices(["P"] * 6)
projects = graph.add_vertices(["J"] * 2)
for a, b in [(0, 1), (1, 2), (3, 4)]:
    graph.add_edge(a, b, label="knows")
for person, project in [(0, 6), (1, 6), (3, 7), (4, 7)]:
    graph.add_edge(person, project, label="works_on", directed=True)

store = CCSRStore(graph)
path = os.path.join(tempfile.mkdtemp(), "collab.ccsr.npz")
save_store(store, path)
print(f"offline: clustered {store.num_edges} edges into"
      f" {store.num_clusters} clusters, saved to {path}")

# ---------------------------------------------------------------------------
# 2. Online: reload the store (no re-clustering) and register the query.
#    Patterns read naturally in the DSL.
# ---------------------------------------------------------------------------
engine = CSCE(load_store(path))
coworkers = pattern(
    "(x:P)-[:knows]-(y:P), (x)-[:works_on]->(j:J), (y)-[:works_on]->(j)"
)
watcher = ContinuousMatcher(engine, coworkers)
print(f"standing query registered: {watcher.total} embeddings initially")

# ---------------------------------------------------------------------------
# 3. Stream updates; the matcher reports only what each edge changes.
# ---------------------------------------------------------------------------
def mappings_using(src, dst, label, directed):
    """The embeddings that use one data edge: pin each pattern edge of the
    same label and direction onto it (both orientations when undirected)
    and enumerate the seeded completions. Edge-induced embeddings are
    injective, so no embedding is found under two pins."""
    for edge in coworkers.edges():
        if edge.label != label or edge.directed != directed:
            continue
        pins = [(edge.src, edge.dst)]
        if not directed:
            pins.append((edge.dst, edge.src))
        for u, v in pins:
            yield from engine.match(coworkers, seed={u: src, v: dst}).embeddings


updates = [
    ("insert", 2, 6, "works_on", True),   # person 2 joins project 0
    ("insert", 4, 6, "works_on", True),   # person 4 joins project 0
    ("insert", 2, 4, "knows", False),     # 2 and 4 meet -> new match!
    ("remove", 1, 2, "knows", False),     # 1 and 2 fall out
]
for action, src, dst, label, directed in updates:
    if action == "insert":
        delta = watcher.insert(src, dst, label, directed)
        verb = "created"
        mappings = list(mappings_using(src, dst, label, directed))
    else:
        # List what the edge supports while it is still there.
        mappings = list(mappings_using(src, dst, label, directed))
        delta = watcher.remove(src, dst, label, directed)
        verb = "destroyed"
    assert len(mappings) == delta.count
    print(f"{action} ({src}, {dst}, {label}): {verb} {delta.count}"
          f" embeddings (total now {watcher.total})")
    for mapping in mappings:
        print(f"    {mapping}")

# The incremental total always agrees with a from-scratch recount.
assert watcher.total == engine.count(coworkers)
print(f"\nfinal total {watcher.total} verified against a full recount")
