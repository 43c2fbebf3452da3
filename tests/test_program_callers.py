"""Every function, method and class under ``src/`` has a caller in the program.

Code that only its own tests call is code to read, document and keep
correct for no behaviour of the program.  This parses every module under
``src/`` and fails on a definition (dunders excepted) whose name no
module under ``src/``, ``benchmarks/`` or ``examples/`` mentions, as a
name or an attribute.  Matching by name is coarse on purpose: a common
method name counts as used wherever it appears, so the guard catches new
test-only code, not every dead path.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Definitions kept without a caller in the program, each with its reason.
ALLOWED = {
    "OpType.is_metadata": "test probe: the complement of is_data",
    "PageCache.cached_chunk_count": "test probe of the cache's footprint",
    "PageCache.dirty_chunk_count": "test probe of write-back progress",
    "Process.is_alive": "test probe of a simulated process's state",
    "FlowNetwork.active_flows": "test probe: no flow outlives its transfer",
    "Link.utilization": "test probe of the max-min allocation",
    "QoSPolicy.is_limited": "test probe of limit install and removal",
    "RobustnessResult.curve": "test probe of the degradation curves",
    "TenantProfile.chaotic": "test probe of the chaos plan's profiles",
    "tracing": "exported convenience: repro.obs.tracing()",
    "profiling": "exported convenience: repro.obs.profiling()",
    "generate_dataset": "exported convenience: repro.generate_dataset()",
}


def definitions(node, prefix=""):
    """Yield ``(qualified name, line)`` of every def and class in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = child.name
            if not (name.startswith("__") and name.endswith("__")):
                yield prefix + name, child.lineno
            yield from definitions(child, f"{prefix}{name}.")
        else:
            yield from definitions(child, prefix)


def names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_has_a_caller_in_the_program():
    used = set()
    for directory in ("src", "benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            used.update(names_used(parse(path)))
    uncalled = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for qualname, line in definitions(parse(path)):
            if qualname.rpartition(".")[2] not in used:
                uncalled[qualname] = f"{path.relative_to(ROOT)}:{line}"
    new = sorted(f"{where} {name}" for name, where in uncalled.items()
                 if name not in ALLOWED)
    assert not new, (
        "defined under src/ but named nowhere in src/, benchmarks/ or "
        "examples/ (delete it, or give it a reason in ALLOWED):\n  "
        + "\n  ".join(new))
    stale = sorted(set(ALLOWED) - set(uncalled))
    assert not stale, f"ALLOWED entries now called or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())
