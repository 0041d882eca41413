"""YAML loading for scenario specs: one dependency-free parser.

Scenario specs are plain YAML documents (ROADMAP item 4, in the style of
the Ouroboros seed-authoring guide in SNIPPETS.md). Every install reads
them with the parser below, whether or not PyYAML is importable, so a
spec runs through the same code everywhere. It understands the strict
subset the shipped library files use — nested mappings and lists by
indentation, inline ``[a, b]`` lists and ``{k: v}`` maps, quoted and
plain scalars, comments — so the harness works on a bare ``numpy``
install.

The contract: a spec is either read as YAML reads it or refused with a
positioned :class:`YamlError`. Tabs outside quotes, anchors, tags,
multi-document streams, block scalars and unprintable characters are
refused. A plain scalar resolves as YAML 1.1 resolves it for the forms a
spec uses (null, ``true``/``false``, decimal ints, floats with a dot,
``.inf`` / ``.nan``); YAML 1.1's other implicit types (``yes``/``no``/
``on``/``off``, octal, hex, binary, sexagesimal and ``_``-grouped
numbers, dates, ``<<``, ``=``) are refused rather than guessed. Quoted
scalars resolve their escapes. ``tests/test_scenario_spec.py`` keeps
PyYAML as the oracle, where installed: identical trees for every
shipped spec, and a hypothesis property over generated scalars and
inline collections.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, List, Optional, Tuple


class YamlError(ValueError):
    """A parse problem, with the 1-based line number where it happened."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


#: Plain scalars YAML reads as something other than a string. Those a
#: spec uses resolve as YAML resolves them; the rest of YAML 1.1's implicit
#: types (yes/no/on/off, octal, hex, binary, sexagesimal and ``_``-grouped
#: numbers, dates, ``<<`` and ``=``) are refused rather than guessed.
_NULL = ("", "~", "null", "Null", "NULL")
_BOOL = {"true": True, "True": True, "TRUE": True,
         "false": False, "False": False, "FALSE": False}
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?")
_SPECIAL_FLOAT = re.compile(r"[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)")
_IMPLICIT = re.compile(
    r"yes|Yes|YES|no|No|NO|on|On|ON|off|Off|OFF|<<|="
    r"|[-+]?(?:0b[01_]+|0x[0-9a-fA-F_]+"
    r"|[0-9][0-9_]*(?::[0-5]?[0-9])*(?:\.[0-9_]*)?(?:[eE][-+][0-9]+)?)"
    r"|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?"
    r"|[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}(?:[Tt \t].*)?")
#: Characters that cannot start a plain scalar.
_INDICATORS = ",[]{}#&*!|>'\"%@`"
_SINGLE = re.compile(r"'((?:[^']|'')*)'")
_DOUBLE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_ESCAPE = re.compile(r"\\(x[0-9A-Fa-f]{2}|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_ESCAPES = {"0": "\0", "a": "\a", "b": "\b", "t": "\t", "\t": "\t", "n": "\n",
            "v": "\v", "f": "\f", "r": "\r", "e": "\x1b", " ": " ", '"': '"',
            "/": "/", "\\": "\\", "N": "\x85", "_": "\xa0", "L": "\u2028",
            "P": "\u2029"}
#: What YAML refuses to read at all.
_NON_PRINTABLE = re.compile(
    "[^\x09\x0a\x0d\x20-\x7e\x85\xa0-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _quoted(text: str, line_no: int) -> str:
    """A single-line quoted scalar, escapes resolved."""
    single, double = _SINGLE.fullmatch(text), _DOUBLE.fullmatch(text)
    if single:
        return single.group(1).replace("''", "'")
    if not double:
        raise YamlError(f"malformed quoted string: {text!r}", line_no)

    def unescape(match: "re.Match[str]") -> str:
        code = match.group(1)
        if len(code) > 1:
            try:
                return chr(int(code[1:], 16))
            except ValueError:
                raise YamlError(f"invalid escape \\{code}", line_no) from None
        if code not in _ESCAPES:
            raise YamlError(f"invalid escape \\{code}", line_no)
        return _ESCAPES[code]

    return _ESCAPE.sub(unescape, double.group(1))


def _parse_scalar(text: str, line_no: int, flow: bool = False) -> Any:
    """One YAML scalar: quoted string, number, bool, null, or plain text.

    ``flow`` marks an entry of an inline ``[...]`` / ``{...}``, where a
    plain scalar may not hold ``,[]{}?`` or start with ``:``.
    """
    text = text.strip(" ")
    if text[:1] in ("'", '"'):
        return _quoted(text, line_no)
    if text in _NULL:
        return None
    # A quote after a blank was taken as opening a quoted scalar when the
    # line's comment and commas were found, which YAML does only where a
    # scalar starts: inside a plain scalar it is refused, as are tabs.
    if (text[0] in _INDICATORS or (text[0] in "-?:" and text[1:2] in ("", " "))
            or ": " in text or text.endswith(":")
            or any(mark in text for mark in (" #", " '", ' "', "\t"))
            or (flow and (text[0] == ":" or any(ch in text for ch in ",[]{}?")))):
        raise YamlError(f"{text!r} cannot be read as a plain scalar (an anchor, "
                        "alias, tag, block scalar or indicator?); quote it", line_no)
    if text in _BOOL:
        return _BOOL[text]
    try:
        if _INT.fullmatch(text):
            return int(text)
    except ValueError as error:  # beyond the interpreter's digit limit
        raise YamlError(str(error), line_no) from None
    if _FLOAT.fullmatch(text):
        return float(text)
    if _SPECIAL_FLOAT.fullmatch(text):
        return float(text.replace(".", ""))
    if _IMPLICIT.fullmatch(text):
        raise YamlError(f"ambiguous scalar {text!r}: YAML 1.1 does not read it as "
                        "a string; quote it, or write true/false or a plain "
                        "decimal number", line_no)
    return text


def _unquoted(text: str) -> Iterator[Tuple[int, str]]:
    """``(index, char)`` of every character of ``text`` outside quotes."""
    quote, index = "", 0
    while index < len(text):
        ch = text[index]
        if quote:
            if quote == '"' and ch == "\\":
                index += 1
            elif ch == quote:
                if quote == "'" and text[index + 1:index + 2] == "'":
                    index += 1
                else:
                    quote = ""
        elif ch in "\"'" and (index == 0 or text[index - 1] in " \t[{,"):
            quote = ch
        else:
            yield index, ch
        index += 1


def _split_inline(body: str, line_no: int) -> List[str]:
    """Split an inline collection body on top-level commas."""
    parts: List[str] = []
    depth = start = 0
    for index, ch in _unquoted(body):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and depth == 0:
            parts.append(body[start:index])
            start = index + 1
    if depth:
        raise YamlError(f"unbalanced inline collection: {body!r}", line_no)
    parts.append(body[start:])
    if not parts[-1].strip(" "):
        parts.pop()  # a trailing comma, or an empty collection
    if any(not part.strip(" ") for part in parts):
        raise YamlError(f"empty entry in inline collection: {body!r}", line_no)
    return parts


def _parse_value(text: str, line_no: int, flow: bool = False) -> Any:
    """A scalar or an inline ``[...]`` / ``{...}`` collection."""
    text = text.strip(" ")
    if text.startswith("[") and text.endswith("]"):
        return [
            _parse_value(part, line_no, flow=True)
            for part in _split_inline(text[1:-1], line_no)
        ]
    if text.startswith("{") and text.endswith("}"):
        mapping = {}
        for part in _split_inline(text[1:-1], line_no):
            key, sep, value = part.partition(": ")
            if not sep:
                raise YamlError(f"expected 'key: value' in inline map: {part!r}", line_no)
            if not key.strip(" "):
                raise YamlError(f"empty key in inline map: {part!r}", line_no)
            mapping[_parse_scalar(key, line_no, flow=True)] = \
                _parse_value(value, line_no, flow=True)
        return mapping
    return _parse_scalar(text, line_no, flow)


def _strip_comment(line: str) -> str:
    """Drop a trailing ``# comment`` that is not inside a quoted string."""
    for index, ch in _unquoted(line):
        if ch == "#" and (index == 0 or line[index - 1] in " \t"):
            return line[:index]
    return line


def _logical_lines(text: str) -> List[Tuple[int, int, str]]:
    """(line number, indent, content) for every non-blank line."""
    out: List[Tuple[int, int, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip(" \t"))]:
            raise YamlError("tabs are not allowed in indentation", number)
        stripped = _strip_comment(raw).rstrip(" ")
        if any(ch == "\t" for _, ch in _unquoted(stripped)):
            raise YamlError("tabs are only allowed inside quoted strings", number)
        content = stripped.lstrip(" ")
        if not content:
            continue
        if content == "---":
            if out:
                raise YamlError("multi-document streams are not supported", number)
            continue
        out.append((number, len(stripped) - len(content), content))
    return out


def _parse_block(lines: List[Tuple[int, int, str]], start: int, indent: int) -> Tuple[Any, int]:
    """Parse the block starting at ``lines[start]`` (all at ``indent``)."""
    content = lines[start][2]
    if content == "-" or content.startswith("- "):
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
        rest = content[1:].strip(" ")
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
        if not sep or not key_text or (value_text and not value_text.startswith(" ")):
            raise YamlError(f"expected 'key: value', got {content!r}", number)
        key = _parse_scalar(key_text, number)
        if key in mapping:
            raise YamlError(f"duplicate key {key!r}", number)
        value_text = value_text.strip(" ")
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
    text = text.removeprefix("\ufeff")
    unprintable = _NON_PRINTABLE.search(text)
    if unprintable:
        raise YamlError(f"unprintable character {unprintable.group()!r}",
                        text.count("\n", 0, unprintable.start()) + 1)
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
