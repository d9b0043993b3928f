"""Each rule of the tagging heap's layout has one home in the source:
the sentinel fill, the address mask, the granule round-up and the
PARTIAL fit; so have the RNG's finalizer, the sampling decision and the
PARTIAL access rule.  A second statement of a rule is how the copies
drift apart, so these tests read the source of src/tagsim and fail on one."""

import ast
import pathlib
import re

import pytest

import tagsim.arena
import tagsim.rng

SRC = pathlib.Path(tagsim.arena.__file__).resolve().parent
MODULES = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}

# a size rounded up to whole granules: "+ tg - 1" before a mask, or a
# ceiling division by tg (the trace analyzer rounds to its own
# alignments, not to a config's granule)
_ROUND_UP = re.compile(r"\+\s*(?:\w+\.)*tg\s*-\s*1\b|-\(-.*//\s*(?:\w+\.)*tg\b")


def _enclosing_functions(source: str, line: int) -> list[str]:
    """The names of the functions around ``line``, outermost first."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.lineno <= line <= node.end_lineno]


def test_the_sources_were_found():
    assert {"arena.py", "memory.py", "scenarios.py", "tagspace.py"} <= set(MODULES)


def test_the_sentinel_is_read_in_three_modules():
    """memory.py defines it, MtConfig.tag_fill picks it, and malloc fills
    a sampled-out chunk with it; every other fill reads tag_fill."""
    readers = {name for name, source in MODULES.items() if re.search(r"\bSENTINEL\b", source)}
    assert readers <= {"memory.py", "tagspace.py", "arena.py"}


def test_the_address_mask_is_defined_once():
    spelled = {name for name, source in MODULES.items()
               if re.search(r"ADDR_SPACE\s*-\s*1\b", source)}
    assert spelled == {"tagspace.py"}


def test_only_placement_rounds_a_size_up_to_granules():
    homes = set()
    for name, source in MODULES.items():
        for number, line in enumerate(source.splitlines(), 1):
            if _ROUND_UP.search(line):
                homes.add((name, tuple(_enclosing_functions(source, number))))
    assert homes == {("arena.py", ("placement",))}


def test_served_size_is_gone():
    assert not hasattr(tagsim.arena, "served_size")
    assert [name for name, source in MODULES.items() if "served_size" in source] == []


def test_mark_partial_decides_nothing():
    """malloc states the PARTIAL fit rule; mark_partial only writes."""
    tree = ast.parse(MODULES["precision.py"])
    (mark,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "mark_partial"]
    branches = [type(node).__name__ for node in ast.walk(mark)
                if isinstance(node, (ast.If, ast.IfExp, ast.BoolOp, ast.Raise, ast.Try))]
    assert branches == []
    assert "_mark_refusal" not in MODULES["precision.py"]


@pytest.mark.parametrize("call", ["load", "store", "check_user_range"])
def test_scenario_setup_makes_no_checked_access(call):
    """A runner's only access is its bug access, through first_mismatch."""
    assert not re.search(rf"\.{call}\(", MODULES["scenarios.py"])


_FINALIZER = {"_S1", "_S2", "_S3", "_M1", "_M2"}


def test_the_finalizer_is_stated_in_mix64_and_the_lane_routine_alone():
    """Its constants are defined once and read by mix64, which mixes one
    word, and _mixed_lanes, which mixes many at once."""
    readers, definitions = set(), 0
    for name, source in MODULES.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and node.id in _FINALIZER:
                if isinstance(node.ctx, ast.Store):
                    definitions += 1
                else:
                    readers.add((name, tuple(_enclosing_functions(source, node.lineno))))
    assert definitions == len(_FINALIZER)
    assert readers == {("rng.py", ("mix64",)), ("rng.py", ("_mixed_lanes",))}
    multipliers = [name for name, source in MODULES.items() for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and node.value in (tagsim.rng._M1, tagsim.rng._M2)]
    assert multipliers == ["rng.py", "rng.py"]  # their one definition


def _call_homes(name: str) -> set:
    """(module, enclosing functions) of each call of a function or
    method called ``name`` in src/tagsim."""
    homes = set()
    for module, source in MODULES.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                homes.add((module, tuple(_enclosing_functions(source, node.lineno))))
    return homes


def test_the_sampling_decision_is_made_in_choose_tag_alone():
    """Sampled's rate is compared with an rng.random() draw in one place:
    every random() draw of the package is in ArenaAllocator._choose_tag."""
    assert _call_homes("random") == {("arena.py", ("_choose_tag",))}


def test_the_partial_rule_is_applied_by_first_mismatch_alone():
    """Every checked access, and the exact theory, decides a PARTIAL
    granule through AccessEngine.first_mismatch."""
    assert _call_homes("partial_access_ok") == {("access.py", ("first_mismatch",))}
