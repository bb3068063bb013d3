"""Reference answers to path and twig patterns, by re-parsing the whole text.

The string-splice replay and the reference joins come from the
repository's differential-test reference,
:class:`tests.oracle.ReferenceDatabase`; this module adds the one thing it
lacks, a pattern matcher.  It knows nothing of segments, labels or the
update log: it parses the text from scratch and walks the element tree.
It understands the subset of the path/twig surface the workloads issue —
steps ``tag`` joined by ``/`` (child) or ``//`` (descendant), each
optionally followed by one or more existential branches
``[relative/path]``; the first step matches at any depth.
"""

from __future__ import annotations

from repro.xml.parser import parse_fragment
from tests.oracle import ReferenceDatabase

__all__ = ["ReferenceDatabase", "parse_pattern", "pattern"]

_WRAPPER = "__perfbench_root__"


def parse_pattern(expression: str) -> list[tuple[str, str, list]]:
    """``[(axis, tag, branches)]`` steps; ``axis`` is ``"/"`` or ``"//"``."""
    steps: list[tuple[str, str, list]] = []
    i = 0
    axis = "//"
    text = expression.strip()
    while i < len(text):
        j = i
        while j < len(text) and text[j] not in "/[":
            j += 1
        tag = text[i:j]
        if not tag:
            raise ValueError(f"empty step in {expression!r}")
        branches = []
        while j < len(text) and text[j] == "[":
            depth, k = 1, j + 1
            while depth:
                if k >= len(text):
                    raise ValueError(f"unbalanced '[' in {expression!r}")
                depth += {"[": 1, "]": -1}.get(text[k], 0)
                k += 1
            branches.append(_relative(parse_pattern(text[j + 1 : k - 1])))
            j = k
        steps.append((axis, tag, branches))
        if j < len(text):
            if text.startswith("//", j):
                axis, j = "//", j + 2
            else:
                axis, j = "/", j + 1
        i = j
    return steps


def _relative(steps: list) -> list:
    """A branch's first step is relative to the element it hangs off (child)."""
    axis, tag, branches = steps[0]
    return [("/", tag, branches)] + steps[1:] if axis == "//" else steps


def pattern(text: str, expression: str) -> list[tuple[int, int]]:
    """Sorted distinct global spans of the output step of a path or twig
    over the super-document ``text``."""
    document = parse_fragment(f"<{_WRAPPER}>{text}</{_WRAPPER}>")
    shift = len(_WRAPPER) + 2
    steps = parse_pattern(expression)
    _, tag, branches = steps[0]
    current = [
        e for e in document.elements
        if e.tag == tag and _branches_hold(e, branches)
    ]
    for axis, tag, branches in steps[1:]:
        seen: dict[int, object] = {}
        for element in current:
            for match in _step(element, axis, tag):
                if id(match) not in seen and _branches_hold(match, branches):
                    seen[id(match)] = match
        current = list(seen.values())
    return sorted((e.start - shift, e.end - shift) for e in current)


def _step(element, axis: str, tag: str):
    candidates = element.children if axis == "/" else element.descendants()
    return [c for c in candidates if c.tag == tag]


def _branches_hold(element, branches: list) -> bool:
    return all(_exists(element, branch) for branch in branches)


def _exists(element, steps: list) -> bool:
    axis, tag, branches = steps[0]
    for match in _step(element, axis, tag):
        if _branches_hold(match, branches) and (
            len(steps) == 1 or _exists(match, steps[1:])
        ):
            return True
    return False
