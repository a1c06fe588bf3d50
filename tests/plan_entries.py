"""The targets of a `target_gen` plan with their provenance, for tests that
read plan entries rather than written probe lists."""

from __future__ import annotations

from srascan import target_gen


def expand(plan) -> list[tuple[int, object, object]]:
    """`(address, origin, stage)` of each target of `plan`, in walk order.

    A column entry pairs each of its addresses with the origin beside it.
    Every target of any other entry has the entry's origin and stage, and
    its address is its subnet index shifted over the entry's host bits.
    """
    out = []
    for origin, stage, indices in plan:
        if type(origin) is list:
            out += [(address, o, stage) for address, o in zip(indices, origin, strict=True)]
        else:
            shift = target_gen._shift(origin, stage)
            out += [(idx << shift, origin, stage) for idx in indices]
    return out
