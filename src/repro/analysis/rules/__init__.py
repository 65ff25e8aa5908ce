"""Rule modules — importing this package populates the registry.

Add a new rule by dropping a module here that defines a
``@register``-decorated :class:`~repro.analysis.registry.BaseRule`
subclass and importing it below; see docs/static_analysis.md for the
step-by-step recipe.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for side effects)
    rl1_journal,
    rl2_determinism,
    rl3_transaction,
    rl4_exceptions,
    rl5_typing,
    rl6_procboundary,
    rl7_journalflow,
    rl8_sharedstate,
    rl9_awaittxn,
    rl10_blockingloop,
    rl11_lockset,
    rl12_taint,
    rl13_lifecycle,
)

__all__ = [
    "rl1_journal",
    "rl2_determinism",
    "rl3_transaction",
    "rl4_exceptions",
    "rl5_typing",
    "rl6_procboundary",
    "rl7_journalflow",
    "rl8_sharedstate",
    "rl9_awaittxn",
    "rl10_blockingloop",
    "rl11_lockset",
    "rl12_taint",
    "rl13_lifecycle",
]
