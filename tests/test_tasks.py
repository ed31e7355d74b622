import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waiterbot.llm import BackendError, Menu, MenuItem, RuleBackend
from waiterbot.tasks import (
    APOLOGY_LINE,
    OK,
    Outcome,
    ParsedTask,
    Pipeline,
    SkillInvocation,
    SkillSpec,
    TaskError,
    TaskRepresentation,
    build_prompts,
    bypass_help,
    default_registry,
    execute,
    failed,
    load_registry,
    render_trace,
)

SUFFIX_MARKER = "### OUTPUT FORMAT ###"


@pytest.fixture
def registry():
    return default_registry()


@pytest.fixture
def menu():
    return Menu([MenuItem("cola", "a chilled cola"), MenuItem("green tea", "hot tea")])


class TestRegistry:
    def test_contains_exactly_four_tasks(self, registry):
        assert sorted(registry) == ["casual_chat", "clean_table", "describe_menu", "serve_order"]

    def test_serve_order_detect_recovery_hands_over(self, registry):
        recovery = registry["serve_order"].recovery["detect"]
        assert [s.kind for s in recovery] == ["speak", "hand_over"]

    def test_recovery_keys_reference_listed_skills(self, registry):
        for rep in registry.values():
            kinds = {s.kind for s in rep.skills}
            assert set(rep.recovery) <= kinds

    def test_invalid_recovery_key_rejected(self):
        with pytest.raises(ValueError):
            TaskRepresentation(
                "broken", (), (SkillSpec("speak", "hi"),), {"detect": (SkillSpec("speak"),)}
            )

    def test_empty_skill_list_rejected(self):
        with pytest.raises(ValueError):
            TaskRepresentation("broken", (), ())

    def test_load_registry_from_json(self):
        doc = {
            "representations": [
                {
                    "name": "fetch",
                    "params": ["item"],
                    "skills": [
                        {"kind": "navigate", "arg": "kitchen_table"},
                        {"kind": "detect", "arg": "{item}"},
                    ],
                    "recovery": {"detect": [{"kind": "speak", "arg": "{help}"}]},
                }
            ]
        }
        registry = load_registry(json.dumps(doc))
        assert registry["fetch"].param_schema == ("item",)
        assert registry["fetch"].recovery["detect"][0].kind == "speak"


class TestPrompts:
    def test_prefixes_identical_up_to_suffix_marker(self, registry, menu):
        pair = build_prompts("Five tables and a kitchen counter.", registry, menu)
        base_u, _, suffix_u = pair.understand_prompt.partition(SUFFIX_MARKER)
        base_r, _, suffix_r = pair.respond_prompt.partition(SUFFIX_MARKER)
        assert base_u == base_r
        assert suffix_u != suffix_r

    def test_base_lists_all_representations(self, registry, menu):
        pair = build_prompts("env", registry, menu)
        base = pair.understand_prompt.partition(SUFFIX_MARKER)[0]
        for k, name in enumerate(registry, start=1):
            assert f"{k}. {name}(" in base

    def test_menu_in_base(self, registry, menu):
        pair = build_prompts("env", registry, menu)
        assert "cola - a chilled cola" in pair.respond_prompt

    def test_empty_environment_rejected(self, registry, menu):
        with pytest.raises(ValueError):
            build_prompts("   ", registry, menu)

    @given(st.text(min_size=1).filter(str.strip))
    @settings(max_examples=100)
    def test_prefix_equality_for_any_environment(self, env_text):
        registry = default_registry()
        pair = build_prompts(env_text, registry, Menu([MenuItem("cola", "a chilled cola")]))
        base_u = pair.understand_prompt.partition(SUFFIX_MARKER)[0]
        base_r = pair.respond_prompt.partition(SUFFIX_MARKER)[0]
        assert base_u == base_r
        assert pair.understand_prompt != pair.respond_prompt


class TestExecute:
    def test_all_ok_runs_definition_order(self, registry):
        ran = []

        def runner(inv):
            ran.append(inv.kind)
            return OK

        out = execute(ParsedTask("serve_order", {"item": "cola"}, 1.0), registry, runner)
        assert out.state is Outcome.COMPLETED
        assert ran == ["navigate", "detect", "grasp", "navigate", "find_placement", "place", "speak"]
        assert out.help_messages == []

    def test_detect_failure_recovers_with_hand_over(self, registry):
        def runner(inv):
            if inv.kind == "detect":
                return failed("not found")
            return OK

        out = execute(ParsedTask("serve_order", {"item": "cola"}, 1.0), registry, runner)
        assert out.state is Outcome.COMPLETED_WITH_ASSIST
        kinds = [inv.kind for inv, _ in out.trace]
        assert kinds == ["navigate", "detect", "speak", "hand_over", "grasp", "navigate",
                         "find_placement", "place", "speak"]
        assert out.help_messages == ["I could not find the cola. Could you place it in my hand?"]
        # the spliced speak voices the help message
        assert out.trace[2][0].arg == out.help_messages[0]

    def test_unrecoverable_failure_aborts(self, registry):
        def runner(inv):
            if inv.kind == "navigate":
                return failed("blocked")
            return OK

        out = execute(ParsedTask("serve_order", {"item": "cola"}, 1.0), registry, runner)
        assert out.state is Outcome.FAILED
        assert [inv.kind for inv, _ in out.trace] == ["navigate"]

    def test_failed_recovery_skill_aborts(self, registry):
        def runner(inv):
            if inv.kind in ("detect", "hand_over"):
                return failed("nope")
            return OK

        out = execute(ParsedTask("serve_order", {"item": "cola"}, 1.0), registry, runner)
        assert out.state is Outcome.FAILED
        assert [inv.kind for inv, _ in out.trace][-1] == "hand_over"

    def test_missing_slot_rejected(self, registry):
        with pytest.raises(TaskError):
            execute(ParsedTask("serve_order", {}, 1.0), registry, lambda inv: OK)

    def test_unknown_task_rejected(self, registry):
        with pytest.raises(TaskError):
            execute(ParsedTask("moonwalk", {}, 1.0), registry, lambda inv: OK)

    def test_render_trace_shape(self, registry):
        def runner(inv):
            return failed("not found") if inv.kind == "detect" else OK

        out = execute(ParsedTask("serve_order", {"item": "green tea"}, 1.0), registry, runner)
        text = render_trace(out)
        lines = text.splitlines()
        assert lines[0] == "navigate(kitchen_table) -> OK"
        assert lines[1] == "detect(green tea) -> FAILED(not found)"
        assert lines[2].startswith("help: ")
        assert lines[-1] == "outcome: COMPLETED_WITH_ASSIST"


class TestBypassHelp:
    def test_detect_failure_asks_for_hand_over(self):
        msg = bypass_help(SkillInvocation("detect", "orange juice"), failed("not found"))
        assert msg == "I could not find the orange juice. Could you place it in my hand?"

    def test_grasp_failure_asks_for_hand(self):
        msg = bypass_help(SkillInvocation("grasp", "cola"), failed("slipped"))
        assert msg == "I could not pick up the cola. Could you hand it to me?"

    def test_empty_reason_generic_but_never_empty(self):
        msg = bypass_help(SkillInvocation("detect", "cola"), failed(""))
        assert msg
        assert msg == "I ran into a problem. Could you help me?"


class LatchBackend:
    """understand() blocks on a latch; respond() records completion."""

    def __init__(self):
        self.latch = threading.Event()
        self.respond_done = threading.Event()
        self.respond_inputs = []
        self.call_order = []

    def understand(self, utterance):
        self.latch.wait(timeout=10)
        self.call_order.append("understand")
        return "task=casual_chat; slots="

    def respond(self, utterance, parsed=None):
        self.respond_inputs.append((utterance, parsed))
        self.call_order.append("respond")
        self.respond_done.set()
        return "on my way"


class FailingBackend:
    def understand(self, utterance):
        raise BackendError("understand down")

    def respond(self, utterance, parsed=None):
        raise BackendError("respond down")


class TestPipeline:
    def test_parallel_respond_completes_while_understand_blocked(self, registry, menu):
        backend = LatchBackend()
        pipe = Pipeline(registry, menu, backend, mode="parallel")
        result = {}
        worker = threading.Thread(target=lambda: result.setdefault("out", pipe.handle("hi")))
        worker.start()
        assert backend.respond_done.wait(timeout=10)
        respond_finished_while_latched = not backend.latch.is_set()
        backend.latch.set()
        worker.join(timeout=10)
        assert respond_finished_while_latched
        assert result["out"][1] == "on my way"
        assert backend.respond_inputs[0][1] is None  # respond never sees the parse

    def test_sequential_respond_sees_parse(self, registry, menu):
        backend = LatchBackend()
        backend.latch.set()
        pipe = Pipeline(registry, menu, backend, mode="sequential")
        pipe.handle("bring me a cola")
        utterance, parsed = backend.respond_inputs[0]
        assert parsed is not None
        assert backend.call_order == ["understand", "respond"]

    def test_both_backends_failing_still_returns(self, registry, menu):
        pipe = Pipeline(registry, menu, FailingBackend(), mode="parallel")
        parsed, response = pipe.handle("bring me a cola")
        assert parsed.name == "serve_order"  # rule fallback on understanding
        assert response == APOLOGY_LINE

    def test_every_utterance_yields_exactly_one_task(self, registry, menu):
        pipe = Pipeline(registry, menu, RuleBackend(registry, menu), mode="parallel")
        for text in ("bring me a cola", "what's on the menu", "hello", ""):
            parsed, _ = pipe.handle(text)
            assert parsed.name in registry

    def test_unknown_mode_rejected(self, registry, menu):
        with pytest.raises(ValueError):
            Pipeline(registry, menu, RuleBackend(registry, menu), mode="sideways")
