"""kronlab_analyze — semantic, project-specific static analysis.

A token/scope frontend (`analyzer.internal_frontend`, no dependencies
beyond the Python standard library) lowers C++ translation units into
one small IR (`analyzer.ir`); the rules (`analyzer.rules`) only ever
see the IR plus raw file text.

See DESIGN.md §15 for the capability map and escape policy.
"""

__version__ = "1.0"

RULES = (
    "lock-order",
    "blocking-under-lock",
    "memory-order",
    "unchecked-read",
    "registry",
)
