from __future__ import annotations

import json
import random

import pytest

from askplan import asset_path
from askplan.plans import (
    PARSE_MEMO_SIZE,
    ActionKind,
    NoSubgoalsFound,
    PlanParseError,
    Subgoal,
    parse_plan,
    parse_subgoal,
    render_subgoal,
)

from conftest import random_subgoal


def test_parse_pickup():
    assert parse_subgoal("(Pickup, knife)") == Subgoal(ActionKind.PICKUP, "knife")


def test_parse_put_with_receptacle():
    assert parse_subgoal("(Put, pan, fridge)") == Subgoal(ActionKind.PUT, "pan", "fridge")


def test_parse_put_without_receptacle_is_arity_error():
    with pytest.raises(PlanParseError, match="Put requires a receptacle"):
        parse_subgoal("(Put, mug)")


def test_parse_receptacle_on_non_put_is_arity_error():
    with pytest.raises(PlanParseError, match="Pickup does not take a receptacle"):
        parse_subgoal("(Pickup, mug, fridge)")


def test_parse_unknown_action():
    with pytest.raises(PlanParseError, match="unknown action 'Jump'"):
        parse_subgoal("(Jump, chair)")


def test_parse_empty_object():
    with pytest.raises(PlanParseError, match="subgoal object must be a non-empty token"):
        parse_subgoal("(Pickup, )")


def test_parse_empty_receptacle():
    with pytest.raises(PlanParseError, match="subgoal receptacle must be a non-empty token"):
        parse_subgoal("(Put, bread, )")


def test_parse_is_case_insensitive_and_normalizes_objects():
    sg = parse_subgoal("  2.  (pick up, Desk Lamp)  ")
    assert sg == Subgoal(ActionKind.PICKUP, "desklamp")


def test_parse_leading_index_forms():
    assert parse_subgoal("1. (Slice, bread)").action is ActionKind.SLICE
    assert parse_subgoal("12) (Open, fridge)").action is ActionKind.OPEN


def test_parse_rejects_non_template_line():
    with pytest.raises(PlanParseError):
        parse_subgoal("pick up the knife")


def test_parse_too_many_fields():
    with pytest.raises(PlanParseError, match="expected 2 or 3 fields, got 4"):
        parse_subgoal("(Put, a, b, c)")


def test_parse_plan_ordered():
    plan = parse_plan("1. (Pickup, knife)\n2. (Slice, bread)")
    assert [sg.action for sg in plan] == [ActionKind.PICKUP, ActionKind.SLICE]


def test_parse_plan_skips_prose_lines():
    plan = parse_plan("Sure! Here is the plan:\n(ToggleOn, desklamp)")
    assert plan == (Subgoal(ActionKind.TOGGLE_ON, "desklamp"),)


def test_parse_plan_no_subgoals():
    with pytest.raises(NoSubgoalsFound, match=r"\(1 lines skipped\)"):
        parse_plan("I cannot help.")


def test_parse_plan_does_not_count_blank_lines_as_skipped():
    with pytest.raises(NoSubgoalsFound, match=r"\(1 lines skipped\)"):
        parse_plan("\n  \nI cannot help.\n\t\n")


def test_parse_plan_skips_bad_template_lines_but_keeps_order():
    raw = "(Pickup, knife)\n(Jump, chair)\n(Put, knife, counter)"
    assert [render_subgoal(sg) for sg in parse_plan(raw)] == \
        ["(Pickup, knife)", "(Put, knife, counter)"]


def test_render_canonical_forms():
    assert render_subgoal(Subgoal(ActionKind.SLICE, "bread")) == "(Slice, bread)"
    assert render_subgoal(Subgoal(ActionKind.PUT, "pan", "fridge")) == "(Put, pan, fridge)"


def test_render_parse_round_trip_1000():
    rng = random.Random(20240817)
    for _ in range(1000):
        sg = random_subgoal(rng)
        assert parse_subgoal(render_subgoal(sg)) == sg


def test_subgoal_constructor_enforces_put_arity():
    with pytest.raises(PlanParseError, match="Put requires a receptacle"):
        Subgoal(ActionKind.PUT, "pan")
    with pytest.raises(PlanParseError, match="Open does not take a receptacle"):
        Subgoal(ActionKind.OPEN, "fridge", "counter")


def test_no_two_subgoals_share_a_text():
    # unequal, and both would read (Put, a, b, c)
    for obj, receptacle in (("a, b", "c"), ("a", "b, c")):
        with pytest.raises(PlanParseError, match="may not hold a comma"):
            Subgoal(ActionKind.PUT, obj, receptacle)
    with pytest.raises(PlanParseError, match="may not hold a comma"):
        Subgoal(ActionKind.PICKUP, "a,b")


def test_gt_plan_validates_against_scenario_vocab(bread_scenario):
    vocab = set(bread_scenario.initial.entities)
    for sg in bread_scenario.gt.core:
        assert sg.object in vocab
        assert sg.receptacle is None or sg.receptacle in vocab


def _bundled_lines() -> list[str]:
    # every ground-truth core line of the task set and every reply line of
    # the scripts, prose lines included
    lines = []
    tasks = json.loads(asset_path("tasks/mini7.json").read_text("utf-8"))
    for scenario in tasks["scenarios"]:
        lines += scenario["gt"]["core"]
    for name in ("mini7", "bread_recovery", "bread_noisy"):
        script = json.loads(asset_path(f"scripts/{name}.json").read_text("utf-8"))
        for entry in script["entries"]:
            lines += entry["reply"].splitlines()
    return lines


def _outcome(parse, line: str):
    try:
        return parse(line)
    except PlanParseError as exc:
        return type(exc), str(exc)


def test_memoised_parse_agrees_with_the_parser_on_every_bundled_line():
    lines = _bundled_lines()
    assert sum(isinstance(_outcome(parse_subgoal.__wrapped__, line), Subgoal)
               for line in lines) > 50
    for _ in range(2):  # cold or warm, the memo gives what the parser gives
        for line in lines:
            assert _outcome(parse_subgoal, line) == _outcome(parse_subgoal.__wrapped__, line), line


def _template_form(sg: Subgoal) -> str:
    fields = (sg.action.value, sg.object) + ((sg.receptacle,) if sg.receptacle else ())
    return f"({', '.join(fields)})"


def test_every_bundled_subgoal_keeps_its_template_form_cold_and_warm():
    lines = [line for line in dict.fromkeys(_bundled_lines())
             if isinstance(_outcome(parse_subgoal.__wrapped__, line), Subgoal)]
    kept = {}
    for line in lines:  # cold: each line's subgoal built afresh
        parse_subgoal.cache_clear()
        sg = kept[line] = parse_subgoal(line)
        assert sg.text == render_subgoal(sg) == _template_form(sg), line
        assert parse_subgoal(sg.text) == sg, line
    parse_subgoal.cache_clear()
    for line in lines:
        parse_subgoal(line)
    for line in lines:  # warm: the memo's subgoal, with its text kept on it
        sg = parse_subgoal(line)
        assert sg is parse_subgoal(line) and sg is not kept[line], line
        assert sg.text == _template_form(sg), line
        assert parse_subgoal(sg.text) == sg, line


def test_the_kept_text_is_outside_equality_hashing_and_repr():
    sg = Subgoal(ActionKind.PUT, "pan", "fridge")
    other = Subgoal(ActionKind.PUT, "pan", "fridge")
    object.__setattr__(other, "text", "(Put, pan, sink)")
    assert other == sg and hash(other) == hash(sg) and repr(other) == repr(sg)
    assert "text" not in repr(sg)
    with pytest.raises(TypeError):
        Subgoal(ActionKind.SLICE, "bread", text="(Slice, bread)")


def test_a_bad_line_raises_the_same_message_on_every_call():
    messages = []
    for _ in range(2):
        with pytest.raises(PlanParseError) as info:
            parse_subgoal("(Jump, chair)")
        messages.append(str(info.value))
    assert messages == ["unknown action 'Jump'"] * 2


def test_the_parse_memo_stays_within_its_bound():
    for index in range(PARSE_MEMO_SIZE + 10):
        assert parse_subgoal(f"(Pickup, obj{index})").object == f"obj{index}"
    info = parse_subgoal.cache_info()
    assert info.maxsize == PARSE_MEMO_SIZE
    assert info.currsize <= PARSE_MEMO_SIZE
