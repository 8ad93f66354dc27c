"""Known-bad fixture for the catalog pass's plan-diagnostic vocabulary:
codes written inline where the verifier reports them, next to a clean
member of ``PLAN_DIAGNOSTICS`` and a code passed by name."""


def check(out, Diagnostic, DAG_CYCLE):
    out.add("spec-collision", "two specs share an id")  # clean
    out.add(DAG_CYCLE, "a cycle")  # clean: a name, imported from the catalog
    out.add("dag-cylce", "a cycle")  # violation: literal typo
    return Diagnostic("order-disconected", "gap", 1)  # violation: typo
