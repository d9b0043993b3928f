"""Each rule of the tagging heap's layout has one home in the source:
the sentinel fill, the address mask, the granule round-up and the
PARTIAL fit; so have the RNG's finalizer, the sampling decision, the
PARTIAL access rule, the building of the simulator's layers, the
fresh state of each part that a Monte-Carlo reset rewinds and the one
part of a simulator that the exact theory replaces.  A
second statement of a rule is how the copies drift apart, so these
tests read the source of src/tagsim and fail on one."""

import ast
import pathlib
import re

import pytest

import tagsim
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


def test_no_cached_property():
    """A cached_property's first read moves every later attribute read of
    its instance off CPython's specialized path; MtConfig, read in every
    trial, sets its derived values in __post_init__ instead."""
    users = {name for name, source in MODULES.items() for node in ast.walk(ast.parse(source))
             if "cached_property" in {getattr(node, "id", None), getattr(node, "attr", None),
                                      getattr(node, "name", None)}}
    assert users == set()


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


def test_partial_metadata_is_read_by_one_helper():
    """The access check and the heap's effective tag both read a PARTIAL
    granule's (n, real tag) through precision.partial_meta."""
    assert _call_homes("partial_meta") == {("precision.py", ("partial_access_ok",)),
                                           ("arena.py", ("effective_tag",))}


_LAYERS = ("AccessEngine", "ArenaAllocator", "ShadowStore", "SparseMemory", "StackTagger")


@pytest.mark.parametrize("layer", _LAYERS)
def test_only_the_simulator_builds_a_layer(layer):
    """Simulator is the public surface: every layer is built in sim.py,
    where its inputs are the facade's, so a layer checks nothing that the
    facade checked already.  The exact theory's scratch machine is a
    Simulator too."""
    assert {module for module, _ in _call_homes(layer)} == {"sim.py"}
    assert layer not in tagsim.__all__


# each part that Simulator._reset rewinds: its module, the Simulator
# function that builds it, and its method that holds its fresh state
_REWOUND = (("rng.py", "SplitMix64", "__init__", "reseed"),
            ("arena.py", "ArenaAllocator", "__init__", "_clear"),
            ("stack.py", "StackTagger", "stack", "_clear"))


def _methods(module: str, cls: str) -> dict:
    (node,) = [node for node in ast.parse(MODULES[module]).body
               if isinstance(node, ast.ClassDef) and node.name == cls]
    return {fn.name: fn for fn in node.body if isinstance(fn, ast.FunctionDef)}


def _self_stores(fn: ast.FunctionDef) -> set:
    return {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"}


@pytest.mark.parametrize("module, cls, builder, rewind", _REWOUND, ids=lambda v: v)
def test_a_reset_rewinds_each_part_and_builds_none(module, cls, builder, rewind):
    """A simulator builds its stream and heap in __init__ and its stack
    tagger on first use, and _reset only rewinds them.  Each part's
    __init__ starts in its rewind method's state and sets none of it,
    and the rewind builds no container: it empties the part's own."""
    assert _call_homes(cls) == {("sim.py", (builder,))}
    methods = _methods(module, cls)
    calls = {node.func.attr for node in ast.walk(methods["__init__"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert rewind in calls
    assert _self_stores(methods[rewind])
    assert not _self_stores(methods["__init__"]) & _self_stores(methods[rewind])
    assert [ast.unparse(node) for node in ast.walk(methods[rewind])
            if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp))] == []


def test_the_theory_swaps_the_stream_alone():
    """The exact theory and a scenario run share one seam: _derive gives
    the scratch simulator a scripted stream (_Run, which serves the draw
    roles alone) and leaves it its own engine.  A fault report is built by the
    engine's checked accesses, and for a scenario by run_scenario."""
    engine_stores = {(module, tuple(_enclosing_functions(source, node.lineno)))
                     for module, source in MODULES.items() for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and node.attr == "engine"}
    assert engine_stores == {("sim.py", ("__init__",))}
    (derive,) = [node for node in ast.parse(MODULES["detection.py"]).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_derive"]
    assert {ast.unparse(node) for node in ast.walk(derive)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)} == {"sim.rng"}
    assert ({home for home in _call_homes("report") if home[0] != "access.py"}
            == {("scenarios.py", ("run_scenario",))})
    assert "randint" not in _methods("rng.py", "SplitMix64")


def test_each_runner_draw_names_its_role():
    """The order of a runner's draws is its code: each draw calls its role
    (size, offset, tag or pin), which SplitMix64 draws as randrange and
    the theory's _Run serves.  No runner draws by another name, which the
    theory could not serve."""
    roles = set(_methods("detection.py", "_Run")) - {"__init__"}
    assert roles and "randrange" not in roles
    assert all(getattr(tagsim.rng.SplitMix64, role) is tagsim.rng.SplitMix64.randrange
               for role in roles)
    for name in ("randrange", "choice", "random"):
        assert "scenarios.py" not in {module for module, _ in _call_homes(name)}, name
    drawn = set(re.findall(r"\brng\.(\w+)\(", MODULES["scenarios.py"]))
    assert drawn == roles


def test_only_the_engine_report_reads_the_store_mode():
    """The deferred-store rule is stated once: AccessEngine.report marks a
    refused store deferred under IMPRECISE_STORES, and store, a scenario
    and run_scenario read the report's flag.  MtConfig defines and checks
    the field, and the CLI parses its flag into one; neither counts."""
    readers = {(module, tuple(_enclosing_functions(source, node.lineno)))
               for module, source in MODULES.items() if module != "tagspace.py"
               for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Attribute) and node.attr == "store_mode"
               and isinstance(node.ctx, ast.Load) and ast.unparse(node.value) != "args"}
    assert readers == {("access.py", ("report",))}


def test_the_theory_runs_no_scenario():
    """_derive decides every kind, whatever it draws, on its one scratch
    simulator; it never builds a second one through run_scenario."""
    assert {home for home in _call_homes("run_scenario") if home[0] == "detection.py"} == set()


def test_each_input_rule_is_checked_in_one_place():
    """The CLI hands each flag to the library type that checks it, and
    raises a UsageError itself only where no library value sees the flag:
    --sampling-rate without --policy sampled, and the --alignments text.
    A cfg is checked by Simulator, and by theoretical_detection alone,
    before its memo hashes it."""
    cli = MODULES["cli.py"]
    raisers = {tuple(_enclosing_functions(cli, node.lineno)) for node in ast.walk(ast.parse(cli))
               if isinstance(node, ast.Raise) and node.exc is not None
               and "UsageError" in ast.unparse(node.exc)}
    assert raisers == {("_policy_from",), ("_parse_alignments",)}
    cfg_checks = {(module, tuple(_enclosing_functions(source, node.lineno)))
                  for module, source in MODULES.items() for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "require_type"
                  and ast.unparse(node.args[0]) == "'cfg'"}
    assert cfg_checks == {("sim.py", ("__init__",)),
                          ("detection.py", ("theoretical_detection",))}
