"""Quickstart: build a graph, match a pattern, inspect the results.

Run with:  python examples/quickstart.py
"""

from repro import CSCE, Graph

# ---------------------------------------------------------------------------
# 1. Build a small heterogeneous data graph.
#
# A tiny social/collaboration graph: persons (P) and projects (J); undirected
# "knows" edges between persons and directed "works_on" edges into projects.
# ---------------------------------------------------------------------------
graph = Graph(name="quickstart")
alice, bob, carol, dave = graph.add_vertices(["P", "P", "P", "P"])
web, db = graph.add_vertices(["J", "J"])

graph.add_edge(alice, bob, label="knows")
graph.add_edge(bob, carol, label="knows")
graph.add_edge(carol, alice, label="knows")
graph.add_edge(carol, dave, label="knows")
graph.add_edge(alice, web, label="works_on", directed=True)
graph.add_edge(bob, web, label="works_on", directed=True)
graph.add_edge(carol, db, label="works_on", directed=True)
graph.add_edge(dave, db, label="works_on", directed=True)

print(f"data graph: {graph}")

# ---------------------------------------------------------------------------
# 2. Describe the pattern: two persons who know each other and work on the
#    same project.
# ---------------------------------------------------------------------------
pattern = Graph(name="coworkers")
p1, p2 = pattern.add_vertices(["P", "P"])
project = pattern.add_vertex("J")
pattern.add_edge(p1, p2, label="knows")
pattern.add_edge(p1, project, label="works_on", directed=True)
pattern.add_edge(p2, project, label="works_on", directed=True)

# ---------------------------------------------------------------------------
# 3. Match. The engine clusters the data graph once (CCSR), then plans and
#    executes per query.
# ---------------------------------------------------------------------------
engine = CSCE(graph)

for variant in ("edge_induced", "vertex_induced", "homomorphic"):
    result = engine.match(pattern, variant)
    print(f"\n{variant}: {result.count} embeddings"
          f" (read {result.read_seconds:.4f}s, plan {result.plan_seconds:.4f}s,"
          f" execute {result.elapsed:.4f}s)")
    names = {alice: "alice", bob: "bob", carol: "carol", dave: "dave",
             web: "web", db: "db"}
    for embedding in result.embeddings:
        mapped = {f"u{u}": names[v] for u, v in sorted(embedding.items())}
        print(f"  {mapped}")

# ---------------------------------------------------------------------------
# 4. Counting without materializing embeddings; SCE factorization kicks in
#    when the plan splits into independent regions (see `csce explain`).
# ---------------------------------------------------------------------------
count = engine.count(pattern, "edge_induced")
print(f"\ncount-only edge-induced: {count}")

# ---------------------------------------------------------------------------
# 5. Inspect the optimized plan.
# ---------------------------------------------------------------------------
plan = engine.build_plan(pattern, "edge_induced")
print(f"matching order Phi*: {plan.order}")
print(f"dependency DAG edges: {dict(plan.dag.out)}")
print(f"clusters used: {[str(c.key) for c in plan.task_clusters.clusters_used]}")
