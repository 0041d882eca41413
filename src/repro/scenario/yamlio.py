"""YAML loading for scenario specs: one dependency-free parser.

Scenario specs are plain YAML documents (ROADMAP item 4, in the style of
the Ouroboros seed-authoring guide in SNIPPETS.md). Every install reads
them with the parser below, whether or not PyYAML is importable, so a
spec runs through the same code everywhere. It understands the strict
subset the shipped library files use — nested mappings and lists by
indentation, inline ``[a, b]`` lists and ``{k: v}`` maps, quoted and
plain scalars, comments — so the harness works on a bare ``numpy/scipy``
install.

The subset is deliberately strict (tabs, anchors, multi-document streams
and block scalars are rejected with positioned errors): a spec is either
read as YAML reads it or refused. ``tests/test_scenario_spec.py`` keeps
PyYAML as the oracle, where installed, and asserts identical trees for
every shipped spec.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple


class YamlError(ValueError):
    """A parse problem, with the 1-based line number where it happened."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def _parse_scalar(text: str, line_no: int) -> Any:
    """One YAML scalar: quoted string, number, bool, null, or plain text."""
    text = text.strip()
    if not text:
        return None
    if text[0] in "\"'":
        quote = text[0]
        if len(text) < 2 or text[-1] != quote:
            raise YamlError(f"unterminated {quote} string: {text!r}", line_no)
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("null", "~"):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_inline(body: str, line_no: int) -> List[str]:
    """Split an inline collection body on top-level commas."""
    parts: List[str] = []
    depth = 0
    quote = ""
    current = ""
    for ch in body:
        if quote:
            current += ch
            if ch == quote:
                quote = ""
            continue
        if ch in "\"'":
            quote = ch
            current += ch
        elif ch in "[{":
            depth += 1
            current += ch
        elif ch in "]}":
            depth -= 1
            current += ch
        elif ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if quote or depth:
        raise YamlError(f"unbalanced inline collection: {body!r}", line_no)
    if current.strip():
        parts.append(current)
    return parts


def _parse_value(text: str, line_no: int) -> Any:
    """A scalar or an inline ``[...]`` / ``{...}`` collection."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        return [
            _parse_value(part, line_no)
            for part in _split_inline(text[1:-1], line_no)
        ]
    if text.startswith("{") and text.endswith("}"):
        mapping = {}
        for part in _split_inline(text[1:-1], line_no):
            key, sep, value = part.partition(":")
            if not sep:
                raise YamlError(f"expected 'key: value' in inline map: {part!r}", line_no)
            mapping[_parse_scalar(key, line_no)] = _parse_value(value, line_no)
        return mapping
    return _parse_scalar(text, line_no)


def _strip_comment(line: str) -> str:
    """Drop a trailing ``# comment`` that is not inside a quoted string."""
    quote = ""
    for index, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = ""
        elif ch in "\"'":
            quote = ch
        elif ch == "#" and (index == 0 or line[index - 1] in " \t"):
            return line[:index]
    return line


def _logical_lines(text: str) -> List[Tuple[int, int, str]]:
    """(line number, indent, content) for every non-blank line."""
    out: List[Tuple[int, int, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise YamlError("tabs are not allowed in indentation", number)
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        if stripped.strip() == "---":
            if out:
                raise YamlError("multi-document streams are not supported", number)
            continue
        for marker in ("&", "*", "|", ">"):
            if stripped.strip().endswith(f": {marker}") or stripped.strip() == marker:
                raise YamlError(
                    f"unsupported YAML feature {marker!r} "
                    "(anchors/aliases/block scalars)", number
                )
        indent = len(stripped) - len(stripped.lstrip(" "))
        out.append((number, indent, stripped.strip()))
    return out


def _parse_block(lines: List[Tuple[int, int, str]], start: int, indent: int) -> Tuple[Any, int]:
    """Parse the block starting at ``lines[start]`` (all at ``indent``)."""
    number, _, content = lines[start]
    if content.startswith("- "):
        return _parse_list(lines, start, indent)
    if content == "-":
        return _parse_list(lines, start, indent)
    return _parse_map(lines, start, indent)


def _parse_list(lines, start: int, indent: int) -> Tuple[List[Any], int]:
    items: List[Any] = []
    index = start
    while index < len(lines):
        number, line_indent, content = lines[index]
        if line_indent < indent:
            break
        if line_indent > indent:
            raise YamlError("unexpected indentation", number)
        if not (content == "-" or content.startswith("- ")):
            break
        rest = content[1:].strip()
        if not rest:
            # A nested block owns the following deeper lines.
            if index + 1 < len(lines) and lines[index + 1][1] > indent:
                value, index = _parse_block(lines, index + 1, lines[index + 1][1])
                items.append(value)
                continue
            items.append(None)
            index += 1
            continue
        if _looks_like_map_entry(rest):
            # "- key: value" opens an inline mapping; deeper lines extend it.
            synthetic = [(number, indent + 2, rest)]
            scan = index + 1
            while scan < len(lines) and lines[scan][1] > indent:
                synthetic.append(lines[scan])
                scan += 1
            value, _ = _parse_map(synthetic, 0, indent + 2)
            items.append(value)
            index = scan
            continue
        items.append(_parse_value(rest, number))
        index += 1
    return items, index


def _looks_like_map_entry(text: str) -> bool:
    if text.startswith(("[", "{", "\"", "'")):
        return False
    key, sep, _ = text.partition(":")
    return bool(sep) and (_[:1] in ("", " ")) and ":" not in key.strip("\"'")


def _parse_map(lines, start: int, indent: int) -> Tuple[dict, int]:
    mapping: dict = {}
    index = start
    while index < len(lines):
        number, line_indent, content = lines[index]
        if line_indent < indent:
            break
        if line_indent > indent:
            raise YamlError("unexpected indentation", number)
        if content == "-" or content.startswith("- "):
            break
        key_text, sep, value_text = content.partition(":")
        if not sep or (value_text and not value_text.startswith(" ")):
            raise YamlError(f"expected 'key: value', got {content!r}", number)
        key = _parse_scalar(key_text, number)
        if key in mapping:
            raise YamlError(f"duplicate key {key!r}", number)
        value_text = value_text.strip()
        if value_text:
            mapping[key] = _parse_value(value_text, number)
            index += 1
            continue
        # Empty value: either a nested block follows, or it's null.
        if index + 1 < len(lines) and lines[index + 1][1] > line_indent:
            value, index = _parse_block(lines, index + 1, lines[index + 1][1])
            mapping[key] = value
        else:
            mapping[key] = None
            index += 1
    return mapping, index


def safe_load(text: str) -> Any:
    """Parse the supported YAML subset of ``text``."""
    lines = _logical_lines(text)
    if not lines:
        return None
    first_indent = lines[0][1]
    if first_indent != 0:
        raise YamlError("top-level content must not be indented", lines[0][0])
    value, consumed = _parse_block(lines, 0, first_indent)
    if consumed != len(lines):
        raise YamlError("trailing content after document", lines[consumed][0])
    return value
