"""The one JSON text writer: every report and every system file.

``dumps_indented(obj)`` returns exactly the text of ``json.dumps(obj,
indent=2)``: ASCII-escaped strings, keys in insertion order, int, float,
bool and None keys written as ``json`` writes them. ``json.dumps`` with an
indent takes the pure-Python encoder, and its nested closures leave a
reference cycle behind on every call. Here strings go through ``json``'s
own C escaper, a list of only strings or only ints is joined in one step,
and the recursion is a plain function, so nothing is left for the cyclic
garbage collector.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INFINITY = float("inf")
# Lists of one of these exact types are joined in one step. The test is
# type(v) is int, not isinstance: a bool is written true or false.
_JOINED = {str: _string, int: int.__repr__}


def dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write(value, newline: str, out: list[str]) -> None:
    """Append the text of value; newline is "\\n" plus its own indent."""
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, value))
        write = _JOINED.get(kinds.pop()) if len(kinds) == 1 else None
        if write:
            out += ("[", inner, ("," + inner).join(map(write, value)), newline, "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = "," + inner
        out += (newline, "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out += (separator, _string(_key(key)), ": ")
            _write(item, inner, out)
            separator = "," + inner
        out += (newline, "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")
