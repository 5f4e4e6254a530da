"""Every file a command reads is read inside `manifest.reading`, the one
boundary that names the file in a read fault.  A read call that a module under
src/ehrseq makes outside a `with reading(...)` block must fail here, in the
tier-1 suite, and not only when some bad input reaches it.  JSON is decoded by
`manifest.json_doc` alone: no other module reaches for a decoder of its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ehrseq"

# module.function -> why its read may stay outside the boundary
EXEMPT = {
    "manifest.file_digest": "reads bytes for a digest; no text or JSON to fault",
    "serializer.load_streams": "its binary open; each line's parse sits inside the boundary",
}

_DECODERS = {"load", "loads", "JSONDecoder"}


def _is_read(call: ast.Call) -> bool:
    """`read_text(...)`, `json.loads(...)`, or `open(...)` in a read mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "loads":
        return isinstance(func.value, ast.Name) and func.value.id == "json"
    if name == "open":
        modes = [a.value for a in call.args + [k.value for k in call.keywords if k.arg == "mode"]
                 if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        return not any(set(mode) & set("wax") for mode in modes)
    return name == "read_text"


def _is_reading(item: ast.withitem) -> bool:
    call = item.context_expr
    return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "reading"


def _reads(sources: dict[str, str]) -> list[tuple[str, int, bool]]:
    """(module.function, line, inside the boundary) of each read call in
    `sources` (module name -> source text)."""
    found = []

    def visit(node, module, function, guarded):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            # a body defined inside a block runs when called, not in the block
            function, guarded = getattr(node, "name", function), False
        if isinstance(node, ast.With) and any(map(_is_reading, node.items)):
            guarded = True
        if isinstance(node, ast.Call) and _is_read(node):
            found.append((f"{module}.{function}", node.lineno, guarded))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function, guarded)

    for module, text in sources.items():
        visit(ast.parse(text), module, "<module>", False)
    return found


def test_every_read_sits_inside_the_read_boundary():
    reads = _reads({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))})
    unguarded = [f"{where}:{line}" for where, line, guarded in reads
                 if not guarded and where not in EXEMPT]
    assert unguarded == []
    # the walk sees the reads it is meant to see, and no exemption is stale
    assert sum(guarded for *_, guarded in reads) >= 10
    assert {where for where, _, guarded in reads if not guarded} == set(EXEMPT)


def test_the_guard_tells_reads_inside_the_boundary_from_reads_outside():
    source = ("def f(p):\n"
              "    with reading(p):\n"
              "        a = p.read_text()\n"
              "        g = lambda: open(p)\n"
              "    b = json.loads(a)\n"
              "    open(p, 'w')\n"
              "    p.open(mode='rb')\n")
    assert _reads({"m": source}) == [("m.f", 3, True), ("m.f", 4, False), ("m.f", 5, False),
                                     ("m.f", 7, False)]


def _json_decoders(source: str) -> list[int]:
    """Lines where `source` names `json.load`, `json.loads` or `json.JSONDecoder`,
    called or not, or imports one of them from `json`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in _DECODERS
                  and isinstance(node.value, ast.Name) and node.value.id == "json"
                  or isinstance(node, ast.ImportFrom) and node.module == "json"
                  and any(alias.name in _DECODERS for alias in node.names))


def test_only_the_manifest_decodes_json():
    found = {path.stem: _json_decoders(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {module: lines for module, lines in found.items()
            if lines and module != "manifest"} == {}
    assert found["manifest"]  # the walk sees the one decoder there is


def test_the_decoder_walk_sees_each_spelling():
    source = ("import json\n"
              "from json import JSONDecoder as D\n"
              "a = json.loads(s)\n"
              "b = json.JSONDecoder(parse_constant=f).decode\n"
              "c = json.load\n"
              "d = json.dumps(a)\n")
    assert _json_decoders(source) == [2, 3, 4, 5]
