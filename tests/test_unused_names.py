"""Every public function, class and method under src/ehrseq is used by the
library or its commands: a name referenced nowhere in src/ehrseq outside its
own definition must fail here, unless it is listed below.  A command
(`@main.command`) is used by the command line."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ehrseq"

# module.name -> the ROADMAP item that wires the name into a command or deletes
# it.  This list may only shrink: a name that gains a use must leave it, and no
# new name may join it.
UNUSED = {
    "planner.hierarchical_plan": "#2 and #16",
    "planner.compression_rate_hier": "#2 and #16",
    "planner.HierarchicalPlan.intermediate_width": "#2 and #16",
    "planner.mirror_decoder": "#12",
    "vq.ema_update": "#9",
    "vq.Codebook.new": "#9",
    "corpus.save_corpus": "#3",
    "serializer.save_streams": "#3",
    "serializer.dense_stream": "#18: a test helper, or a caller in src/",
    "serializer.dpe_place_value": "#18: a test helper, or a caller in src/",
    "corpus.numeric": "#18: a test helper, or a caller in src/",
    "corpus.itemized": "#18: a test helper, or a caller in src/",
}


def _is_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" and getattr(d.func.value, "id", None) == "main"
               for d in node.decorator_list)


def _definitions(tree: ast.Module):
    """(name, node) of each public top-level function and class, and of each
    public method of a public class, as `Class.method`."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _referenced(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Every name, attribute and imported name in `tree` outside `skip`."""
    names = set()

    def visit(node):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return names


def _unused(sources: dict[str, str]) -> set[str]:
    """module.name of each public definition in `sources` (module name ->
    source text) that no code in `sources` references outside the definition
    itself; a command is used."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return {f"{module}.{name}" for module, tree in trees.items()
            for name, node in _definitions(tree)
            if not _is_command(node)
            and not any(name.rsplit(".", 1)[-1] in _referenced(other, node)
                        for other in trees.values())}


def test_every_public_name_is_used_or_listed():
    assert _unused({path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}) \
        == set(UNUSED)


def test_the_walk_tells_a_used_name_from_an_unused_one():
    source = ("def used(): return used()\n"
              "def alone(): return alone()\n"
              "def _private(): pass\n"
              "@main.command()\n"
              "def cmd(): pass\n"
              "class Box:\n"
              "    def open(self): return self.size\n"
              "    def size(self): pass\n"
              "    def shut(self): return self.shut()\n"
              "class _Hidden:\n"
              "    def convert(self): pass\n")
    other = "from m import used\nBox().open()\n"
    assert _unused({"m": source, "n": other}) == {"m.alone", "m.Box.shut"}
