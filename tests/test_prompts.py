import json

import pytest

from kgreason.prompts import (
    ADEQUACY_VERIFY,
    BEAM_SELECT,
    BUILTIN_DEMONSTRATIONS,
    DEDUCTIVE_VERIFY,
    DEFAULT_DEMO_COUNT,
    FINAL_REASON,
    PLAN_AND_SOLVE,
    TEMPLATES,
    UnboundPlaceholderError,
    load_demonstrations,
    render,
)


def test_catalog_covers_all_interactions():
    assert set(TEMPLATES) == {
        PLAN_AND_SOLVE,
        DEDUCTIVE_VERIFY,
        ADEQUACY_VERIFY,
        BEAM_SELECT,
        FINAL_REASON,
    }


def test_beam_select_carries_numbered_paths_and_index_instruction():
    paths = "\n".join(
        [
            "1. A -> r1 -> B",
            "2. A -> r1 -> C",
            "3. A -> r2 -> D",
        ]
    )
    rendered = render(
        BEAM_SELECT,
        {
            "plan_context": "step 1; step 2",
            "query": "which road?",
            "beam_width": 4,
            "reasoning_paths": paths,
        },
    )
    for line in paths.splitlines():
        assert line in rendered.user
    assert "best 4" in rendered.user
    assert "index" in rendered.user.lower()


def test_deductive_verify_shape():
    rendered = render(
        DEDUCTIVE_VERIFY,
        {
            "declarative_statement": "Jamaican people speak Jamaican_English.",
            "parsed_reasoning_path": "Jamaica -> language.human_language.main_country -> Jamaican_English",
        },
        demonstrations={},
    )
    assert rendered.user.startswith(
        "Whether the conclusion 'Jamaican people speak Jamaican_English.' can be deduced from"
    )
    assert "if yes, return yes, if no, return no" in rendered.user
    assert rendered.user.endswith("A:")


def test_rendering_is_byte_deterministic():
    bindings = {"query": "who?", "reasoning_path": "A -> r -> B"}
    first = render(FINAL_REASON, bindings)
    second = render(FINAL_REASON, bindings)
    assert first.user == second.user
    assert first.system == second.system
    assert first.bindings_digest() == second.bindings_digest()


def test_unbound_placeholder_is_named():
    with pytest.raises(UnboundPlaceholderError) as exc:
        render(DEDUCTIVE_VERIFY, {"declarative_statement": "x"})
    assert "parsed_reasoning_path" in exc.value.names
    assert exc.value.template_key == DEDUCTIVE_VERIFY


def test_extra_bindings_are_kept_not_rejected():
    rendered = render(
        FINAL_REASON,
        {"query": "q", "reasoning_path": "A -> r -> B", "terminal_entities": "B"},
    )
    assert rendered.bindings["terminal_entities"] == "B"


def test_non_string_bindings_are_stringified():
    rendered = render(
        BEAM_SELECT,
        {"plan_context": "p", "query": "q", "beam_width": 4, "reasoning_paths": "1. x"},
    )
    assert rendered.bindings["beam_width"] == "4"


def test_default_five_demonstrations_prepended():
    assert DEFAULT_DEMO_COUNT == 5
    rendered = render(PLAN_AND_SOLVE, {"query": "who?"})
    for demo in BUILTIN_DEMONSTRATIONS[PLAN_AND_SOLVE][:5]:
        assert demo in rendered.user
    assert rendered.user.endswith("Q: who?\n\nA:")


def test_empty_demonstrations_strip_few_shot_block():
    rendered = render(PLAN_AND_SOLVE, {"query": "who?"}, demonstrations={})
    assert rendered.user == "Q: who?\n\nA:"


def test_custom_demonstrations_override_builtins():
    rendered = render(
        FINAL_REASON,
        {"query": "q", "reasoning_path": "A -> r -> B"},
        demonstrations={FINAL_REASON: ("Question: demo\n\nA: demo-answer",)},
    )
    assert rendered.user.startswith("Question: demo\n\nA: demo-answer\n\n")


def test_digest_tracks_binding_changes():
    base = {"query": "q", "reasoning_path": "A -> r -> B"}
    changed = dict(base, reasoning_path="A -> r -> C")
    assert (
        render(FINAL_REASON, base).bindings_digest()
        != render(FINAL_REASON, changed).bindings_digest()
    )


def test_unknown_template_key_rejected():
    with pytest.raises(KeyError):
        render("no_such_template", {})


def test_load_demonstrations_round_trip(tmp_path):
    path = tmp_path / "demos.json"
    path.write_text(json.dumps({"final_reason": ["Question: d\n\nA: x"]}))
    demos = load_demonstrations(str(path))
    assert demos["final_reason"] == ("Question: d\n\nA: x",)


def test_load_demonstrations_rejects_unknown_key(tmp_path):
    path = tmp_path / "demos.json"
    path.write_text(json.dumps({"mystery_prompt": ["x"]}))
    with pytest.raises(ValueError):
        load_demonstrations(str(path))


def test_plan_template_documents_placeholder_convention():
    system = TEMPLATES[PLAN_AND_SOLVE].system_text
    assert "'Jamaican people speak *placeholder*.'" in system
    assert "declarative_statement" in system
