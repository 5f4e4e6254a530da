"""Every file a command reads is read inside `manifest.reading`, the one
boundary that names the file in a read fault.  A read call that a module under
src/ehrseq makes outside a `with reading(...)` block must fail here, in the
tier-1 suite, and not only when some bad input reaches it.  JSON is decoded by
`manifest.json_doc` alone: no other module reaches for a decoder of its own.
And a decoded document is read by the one document rule, `manifest.json_fields`
or `manifest.json_numbers`, unless its reader is exempt below."""

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


# module.function -> why its `json_doc` result may skip the document rule
RULE_EXEMPT = {
    "serializer._stream_from_line": "a stream record: channels are read from its bytes, "
                                    "and its header keys one by one, since other "
                                    "generators add keys of their own",
    "serializer._cut_arrays": "decodes one key of a record line, not a document",
    "cli._save": "only asks whether a manifest already in --out is this command's",
    "cli._json_number": "a command-line value: a number, not a document",
}

_RULE = {"json_fields", "json_numbers"}


def _name(func) -> str | None:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _json_docs(sources: dict[str, str]) -> list[tuple[str, int, bool]]:
    """(module.function, line, read by the rule) of each `json_doc(...)` call
    in `sources` (module name -> source text); methods are named
    `Class.method`.  A call is read by the rule when it is an argument of a
    `json_fields` or `json_numbers` call."""
    found = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and _name(node.func) == "json_doc":
            found.append((".".join((module,) + (scope or ("<module>",))), node.lineno,
                          id(node) in ruled))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, text in sources.items():
        tree = ast.parse(text)
        ruled = {id(arg) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _name(node.func) in _RULE for arg in node.args}
        visit(tree, module, ())
    return found


def test_every_document_is_read_by_the_one_rule():
    docs = _json_docs({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
                       if path.stem != "manifest"})
    unruled = {where for where, _, ruled in docs if not ruled}
    assert unruled - set(RULE_EXEMPT) == set()
    assert unruled == set(RULE_EXEMPT)  # no exemption is stale
    # plans, codebooks, latents, generator configs and schema.json
    assert {where for where, _, ruled in docs if ruled} == {
        "planner.load_plan", "vq.Codebook.load", "cli.quantize",
        "corpus.load_generator_config", "corpus._read_columns"}


def test_the_rule_walk_tells_a_ruled_document_from_a_bare_one():
    source = ("class C:\n"
              "    def load(p):\n"
              "        a = json_fields(C, json_doc(p.read_text()), KEYS)\n"
              "        b = json_doc(p.read_text())['k']\n"
              "        return json_numbers('z', manifest.json_doc(a))\n"
              "def f(t):\n"
              "    return STRING('k', json_doc(t))\n")
    assert _json_docs({"m": source}) == [("m.C.load", 3, True), ("m.C.load", 4, False),
                                         ("m.C.load", 5, True), ("m.f", 7, False)]
