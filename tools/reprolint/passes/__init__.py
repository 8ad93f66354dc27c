"""Pass modules; importing this package registers every pass.

Add a new pass by creating a module here with a ``@register``-decorated
:class:`~tools.reprolint.LintPass` subclass, importing it below, and
dropping a known-bad snippet in ``tools/reprolint/fixtures/<name>.py``
(covered automatically by ``tests/test_reprolint.py``).
"""

from tools.reprolint.passes import (  # noqa: F401  (registration side effect)
    api_all,
    catalog,
    checkpoint_fields,
    clock_discipline,
    exception_flow,
    fork_safety,
    layering,
    message_protocol,
    no_recursion,
    signal_safety,
    wire_schema,
)
