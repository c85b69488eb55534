from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from askplan import asset_path
from askplan.plans import parse_subgoal
from askplan.prompting import (
    Verdict,
    classify_validity,
    format_transcript,
    gen_feedback_prompt,
    gen_replan_prompt,
    gen_std_prompt,
    gen_tp_prompt,
    gen_validity_prompt,
    load_template,
)

DATA = Path(__file__).parent / "data"
BREAD = "put a heated slice of bread in the fridge"

TEMPLATE_NAMES = sorted(path.stem for path in asset_path("prompts").glob("*.txt"))
_PLACEHOLDER_RE = re.compile(r"\{[A-Za-z_][A-Za-z0-9_ -]*\}")

QA = (
    ("Which sub-tasks make up the instruction?", "Slice, heat, then store the bread."),
    ("In which order must the sub-tasks be carried out?", "Slice first, then heat, then store."),
    ("Which target objects and receptacles are involved?", "Bread, knife, microwave, fridge."),
    ("How is each sub-task executed, step by step?", "Slice with the knife, heat in the microwave."),
)


def assert_placeholder_free(prompt):
    assert not _PLACEHOLDER_RE.search(prompt.user_text)
    assert not _PLACEHOLDER_RE.search(prompt.system_text)


def test_all_templates_load_with_declared_placeholders_only():
    assert len(TEMPLATE_NAMES) == 8
    for name in TEMPLATE_NAMES:
        template = load_template(name)
        assert template.user_text
        assert template.placeholders


def test_std_prompt_contains_instruction_and_discovery_marker():
    prompt = gen_std_prompt(BREAD)
    assert BREAD in prompt.user_text
    assert "things to discover" in prompt.user_text
    assert_placeholder_free(prompt)


def test_std_prompt_covers_four_discovery_dimensions():
    prompt = gen_std_prompt(BREAD)
    text = prompt.user_text.lower()
    assert "sub-task" in text
    assert "order" in text
    assert "object" in text
    assert "step" in text


def test_std_prompt_states_simulator_rules():
    prompt = gen_std_prompt(BREAD)
    assert "Pickup, Put, ToggleOn, ToggleOff, Open, Close, Slice, Navigate" in prompt.user_text
    assert "one object at a time" in prompt.user_text


def test_std_prompt_golden():
    prompt = gen_std_prompt(BREAD)
    text = f"[system]\n{prompt.system_text}\n[user]\n{prompt.user_text}\n"
    assert text == (DATA / "golden_std_bread.txt").read_text()


def test_tp_prompt_embeds_qa_in_order():
    prompt = gen_tp_prompt(BREAD, QA)
    positions = [prompt.user_text.index(q) for q, _ in QA]
    assert positions == sorted(positions)
    for _, answer in QA:
        assert answer in prompt.user_text
    assert_placeholder_free(prompt)


def test_tp_prompt_contains_template_rule_verbatim():
    prompt = gen_tp_prompt(BREAD, QA)
    assert ("Follow the template: (action, object). "
            "For PutObject, only use (action, object, object)") in prompt.user_text
    assert "Based on this conversation, create a detailed plan" in prompt.user_text


def test_tp_prompt_rejects_empty_transcript():
    with pytest.raises(ValueError, match="planning with a decomposition requires"):
        gen_tp_prompt(BREAD, ())


def test_tp_no_std_has_no_qa_lines():
    prompt = gen_tp_prompt(BREAD, None)
    assert "Q:" not in prompt.user_text
    assert "Based on this conversation" not in prompt.user_text
    assert_placeholder_free(prompt)


def test_tp_vs_no_std_structural_diff():
    # the two planner prompts differ by exactly the conversation block and
    # the command sentence
    with_qa = gen_tp_prompt(BREAD, QA).user_text.splitlines()
    without = gen_tp_prompt(BREAD, None).user_text.splitlines()
    added = [line for line in with_qa if line not in without]
    removed = [line for line in without if line not in with_qa]
    expected_added = ["Conversation:"]
    expected_added += format_transcript(QA).splitlines()
    expected_added += ["Based on this conversation, create a detailed plan for "
                       "executing instructions that consist of various sub-tasks."]
    assert added == expected_added
    assert removed == ["Create a detailed plan for executing instructions that "
                       "consist of various sub-tasks."]


def test_cot_prompt_marker_and_instruction():
    prompt = gen_std_prompt(BREAD, cot=True)
    assert "Let's think step by step" in prompt.user_text
    assert BREAD in prompt.user_text
    assert "Q:" not in prompt.user_text
    assert_placeholder_free(prompt)


def test_cot_paired_tp_wording():
    cot_qa = (("", "1. Slice the bread. 2. Heat it. 3. Store it."),)
    prompt = gen_tp_prompt(BREAD, cot_qa, cot=True)
    assert "based on this step-by-step decomposition" in prompt.user_text.lower()
    assert "Based on this conversation" not in prompt.user_text
    assert "Decomposition:" in prompt.user_text


def test_cot_tp_prompt_inserts_instruction_and_transcript_verbatim():
    instruction = f"Conversation: {BREAD}"
    reply = "Conversation: first slice. Based on this conversation, heat it."
    prompt = gen_tp_prompt(instruction, (("", reply),), cot=True)
    assert f"Instruction: {instruction}\n" in prompt.user_text
    assert f"Decomposition:\n{reply}\n" in prompt.user_text


def test_validity_prompt_embeds_subgoal():
    prompt = gen_validity_prompt(parse_subgoal("(Put, pan, fridge)"))
    assert "(Put, pan, fridge)" in prompt.user_text
    assert_placeholder_free(prompt)


def test_validity_prompt_golden():
    prompt = gen_validity_prompt(parse_subgoal("(ToggleOn, desklamp)"))
    text = f"[system]\n{prompt.system_text}\n[user]\n{prompt.user_text}\n"
    assert text == (DATA / "golden_validity_toggleon_desklamp.txt").read_text()


def test_feedback_prompt_mentions_object_and_verdict():
    verdict = classify_validity("INVALID - too heavy")
    prompt = gen_feedback_prompt(parse_subgoal("(Pickup, desklamp)"), verdict)
    assert "desklamp" in prompt.user_text
    assert "INVALID" in prompt.user_text
    assert_placeholder_free(prompt)


def test_feedback_prompt_golden():
    verdict = classify_validity("INVALID - too heavy")
    prompt = gen_feedback_prompt(parse_subgoal("(Pickup, desklamp)"), verdict)
    text = f"[system]\n{prompt.system_text}\n[user]\n{prompt.user_text}\n"
    assert text == (DATA / "golden_feedback_pickup_desklamp.txt").read_text()


def test_replan_prompt_assembles_all_parts():
    plan = (parse_subgoal("(Navigate, desklamp)"), parse_subgoal("(Pickup, desklamp)"))
    feedback = "The desk lamp is too heavy to lift; toggle it in place instead."
    verdict = classify_validity("INVALID - the lamp cannot be picked up")
    prompt = gen_replan_prompt(feedback, plan, {"desklamp", "book"}, verdict,
                               "turn on the desk lamp")
    assert "(Pickup, desklamp)" in prompt.user_text
    assert feedback in prompt.user_text
    assert "turn on the desk lamp" in prompt.user_text
    assert "book, desklamp" in prompt.user_text  # sorted, deduplicated
    assert_placeholder_free(prompt)


def test_replan_prompt_observed_objects_sorted_deduplicated():
    plan = (parse_subgoal("(Pickup, mug)"),)
    prompt = gen_replan_prompt("f", plan, {"b", "a", "a", "c"},
                               classify_validity("VALID"), "i")
    assert "a, b, c" in prompt.user_text


def test_replan_prompt_needs_nonempty_plan():
    with pytest.raises(ValueError):
        gen_replan_prompt("f", (), set(),
                          classify_validity("VALID"), "i")


def test_classify_validity_rules():
    assert classify_validity("INVALID - the fridge door is closed") is Verdict.INVALID
    assert classify_validity("VALID") is Verdict.VALID
    assert classify_validity("I'm not sure.") is Verdict.INVALID
    assert classify_validity("valid, go ahead") is Verdict.VALID
    assert classify_validity("this is inVALID here") is Verdict.INVALID
    # whole words only: "validity" is neither verdict
    assert classify_validity("I cannot judge its validity") is Verdict.INVALID
    assert classify_validity("Validity: the fridge is closed.") is Verdict.INVALID
    # a denied VALID and a questioned one are no verdict to redo on
    for text in ("This step is not valid.", "NOT VALID - the door is closed",
                 "isn't valid", "Valid? No.", "This is not a valid step.", "It isn’t valid"):
        assert classify_validity(text) is Verdict.INVALID, text
    assert classify_validity("Is it valid? Yes, VALID.") is Verdict.VALID


def test_classify_validity_never_reads_invalid_as_valid():
    for text in ("INVALID", "invalid", "Invalid because VALID is not possible"):
        assert classify_validity(text) is Verdict.INVALID


def test_feedback_requires_text():
    plan = (parse_subgoal("(Pickup, mug)"),)
    with pytest.raises(ValueError, match="feedback"):
        gen_replan_prompt("   ", plan, set(), classify_validity("VALID"), "i")


def test_format_transcript_cot_pseudo_turn():
    qa = (("", "Step-by-step text."),)
    assert format_transcript(qa) == "Step-by-step text."


def test_unknown_template_name_rejected():
    with pytest.raises(ValueError, match="unknown template 'nonexistent'"):
        load_template("nonexistent")


def test_the_stage_templates_name_the_environment_fragment_and_no_template_copies_one():
    templates = {path.stem: path.read_text("utf-8")
                 for path in asset_path("prompts").glob("*.txt")}
    fragments = {path.stem: path.read_text("utf-8").splitlines()
                 for path in asset_path("prompts").glob("*.part")}
    assert set(fragments) == {"environment", "plan_format"}
    for name in ("std", "std_cot", "tp", "tp_cot", "tp_no_std", "replan"):
        assert "<<environment>>" in templates[name], name
    for name in ("tp", "tp_cot", "tp_no_std", "replan"):
        assert "<<plan_format>>" in templates[name], name
    # a fragment line pasted back into a template, whole or inside a longer
    # line, fails here
    for name, text in templates.items():
        for fragment, fragment_lines in fragments.items():
            pasted = [line for line in fragment_lines if line.strip() and line in text]
            assert not pasted, (name, fragment, pasted)


def test_a_fragment_is_expanded_wherever_it_is_named_and_a_missing_one_is_named(
        tmp_path, monkeypatch):
    from askplan import prompting

    (tmp_path / "prompts").mkdir()
    (tmp_path / "prompts" / "broken.txt").write_text("[system]\nS\n[user]\nWrite <<nowhere>>.\n")
    monkeypatch.setattr(prompting, "resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(ValueError, match="^unknown fragment 'nowhere' in template 'broken'$"):
        load_template("broken")
    # inside a line, at its start or end, or on a line of its own
    (tmp_path / "prompts" / "plan_format.part").write_text("one per line.\n")
    (tmp_path / "prompts" / "inline.txt").write_text(
        "[system]\nS <<plan_format>>\n[user]\n<<plan_format>>\n"
        "Write <<plan_format>> Then <<plan_format>>\n")
    template = load_template("inline")
    assert (template.system_text, template.user_text) == \
        ("S one per line.", "one per line.\nWrite one per line. Then one per line.")


def test_render_with_missing_value_rejected():
    from askplan.prompting import _render

    with pytest.raises(ValueError, match=r"template 'tp' takes \['QA', 'instruction'\], "
                                         r"got \['instruction'\]"):
        _render("tp", {"instruction": "x"})  # {QA} left unfilled
    with pytest.raises(ValueError, match=r"template 'std' takes \['instruction'\], "
                                         r"got \['QA', 'instruction'\]"):
        _render("std", {"instruction": "x", "QA": "y"})  # std has no {QA}


# value text is drawn from these: placeholder tokens of its own template or another
_VALUE_TOKENS = ("{", "}", " ", "x", "{validity}", "{feedback}", "{instruction}", "{QA}",
                 "{subgoal}", "{object}", "{observed_objects}", "{initial high-level plan}")


def test_render_inserts_every_value_verbatim():
    from askplan.prompting import _render

    rng = random.Random(11)
    for name in TEMPLATE_NAMES:
        placeholders = sorted(load_template(name).placeholders)
        for _ in range(40):
            values = {key: "".join(rng.choices(_VALUE_TOKENS, k=rng.randrange(9)))
                      for key in placeholders}
            prompt = _render(name, values)
            text = f"{prompt.system_text}\n{prompt.user_text}"
            for value in values.values():
                assert value in text, (name, values)


def test_trace_with_placeholder_in_feedback_is_the_same_for_any_hash_seed(tmp_path):
    script = json.loads(asset_path("scripts/bread_recovery.json").read_text("utf-8"))
    assert "cause of the failure" in script["entries"][3]["contains_all"]
    script["entries"][3]["reply"] = "Open the fridge first; {validity} {feedback} {instruction}"
    tasks = json.loads(asset_path("tasks/mini7.json").read_text("utf-8"))
    tasks["scenarios"] = [s for s in tasks["scenarios"] if s["id"] == "heat_bread"]
    (tmp_path / "script.json").write_text(json.dumps(script))
    (tmp_path / "tasks.json").write_text(json.dumps(tasks))
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "askplan.cli", "run", "--tasks",
                        str(tmp_path / "tasks.json"), "--script", "script.json",
                        "--seed", "42", "--out", str(out)],
                       cwd=tmp_path, env=env, check=True, capture_output=True, timeout=60)
        trace = (out / "traces.jsonl").read_bytes()
        assert b"Open the fridge first; {validity} {feedback} {instruction}" in trace
        digests.add(hashlib.sha256(trace).hexdigest())
    assert len(digests) == 1
