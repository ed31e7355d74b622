import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waiterbot.llm import BackendError, Menu, MenuItem, RuleBackend, _normalize
from waiterbot.formats import Utterance, load_scenario
from waiterbot.tasks import (
    APOLOGY_LINE,
    OK,
    REGISTRY,
    Outcome,
    ParsedTask,
    Pipeline,
    SkillInvocation,
    SkillSpec,
    TaskError,
    TaskRepresentation,
    build_prompts,
    execute,
    failed,
    render_trace,
)

SUFFIX_MARKER = "### OUTPUT FORMAT ###"


def accepted_name(name: str) -> bool:
    """Whether `Menu` takes `name` as an item name."""
    try:
        Menu([MenuItem(name, "")])
    except ValueError:
        return False
    return True


@pytest.fixture
def menu():
    return Menu([MenuItem("cola", "a chilled cola"), MenuItem("green tea", "hot tea")])


class TestRegistry:
    def test_contains_exactly_four_tasks(self):
        assert sorted(REGISTRY) == ["casual_chat", "clean_table", "describe_menu", "serve_order"]

    def test_serve_order_detect_recovery_hands_over(self):
        recovery = REGISTRY["serve_order"].recovery["detect"]
        assert [s.kind for s in recovery] == ["speak", "hand_over"]

    def test_recovery_keys_reference_listed_skills(self):
        for rep in REGISTRY.values():
            kinds = {s.kind for s in rep.skills}
            assert set(rep.recovery) <= kinds

    def test_is_read_only(self):
        with pytest.raises(TypeError):
            REGISTRY["serve_order"] = REGISTRY["casual_chat"]

    def test_recovery_is_read_only(self):
        with pytest.raises(TypeError):
            REGISTRY["serve_order"].recovery["grasp"] = ()
        recovery = {"speak": (SkillSpec("speak", "again"),)}
        rep = TaskRepresentation("echo", (), (SkillSpec("speak", "hi"),), recovery)
        recovery["speak"] = ()
        assert rep.recovery["speak"] == (SkillSpec("speak", "again"),)  # a copy, not a view

    def test_detect_recovery_asks_for_the_item_by_name(self):
        help_line = REGISTRY["serve_order"].recovery["detect"][0].bind({"item": "cola"})
        assert help_line.arg == "I could not find the cola. Could you place it in my hand?"

    @pytest.mark.parametrize("splice", [
        (),
        (SkillSpec("hand_over", "{item}"),),
        (SkillSpec("speak"), SkillSpec("hand_over", "{item}")),
        (SkillSpec("speak", ""), SkillSpec("hand_over", "{item}")),
    ])
    def test_recovery_must_open_with_a_help_request(self, splice):
        with pytest.raises(ValueError, match="must open with a speak"):
            TaskRepresentation("broken", ("item",), (SkillSpec("detect", "{item}"),), {"detect": splice})

    def test_invalid_recovery_key_rejected(self):
        with pytest.raises(ValueError):
            TaskRepresentation(
                "broken", (), (SkillSpec("speak", "hi"),), {"detect": (SkillSpec("speak"),)}
            )

    def test_empty_skill_list_rejected(self):
        with pytest.raises(ValueError):
            TaskRepresentation("broken", (), ())


class TestPrompts:
    def test_prefixes_identical_up_to_suffix_marker(self, menu):
        pair = build_prompts(menu)
        base_u, _, suffix_u = pair.understand_prompt.partition(SUFFIX_MARKER)
        base_r, _, suffix_r = pair.respond_prompt.partition(SUFFIX_MARKER)
        assert base_u == base_r
        assert suffix_u != suffix_r

    def test_base_lists_all_representations(self, menu):
        pair = build_prompts(menu)
        base = pair.understand_prompt.partition(SUFFIX_MARKER)[0]
        for k, name in enumerate(REGISTRY, start=1):
            assert f"{k}. {name}(" in base

    def test_menu_in_base(self, menu):
        pair = build_prompts(menu)
        assert "cola - a chilled cola" in pair.respond_prompt

    @given(st.lists(st.tuples(st.text(min_size=1).filter(accepted_name), st.text()), min_size=1,
                    unique_by=lambda item: _normalize(item[0])))
    @settings(max_examples=100)
    def test_prefix_equality_for_any_menu(self, items):
        pair = build_prompts(Menu([MenuItem(name, description) for name, description in items]))
        base_u = pair.understand_prompt.partition(SUFFIX_MARKER)[0]
        base_r = pair.respond_prompt.partition(SUFFIX_MARKER)[0]
        assert base_u == base_r
        assert pair.understand_prompt != pair.respond_prompt


class TestExecute:
    def test_all_ok_runs_definition_order(self):
        ran = []

        def runner(inv):
            ran.append(inv.kind)
            return OK

        out = execute(ParsedTask("serve_order", {"item": "cola"}, 1.0), runner)
        assert out.state is Outcome.COMPLETED
        assert ran == ["navigate", "detect", "grasp", "navigate", "find_placement", "place", "speak"]
        assert out.help_messages == []

    def test_detect_failure_recovers_with_hand_over(self):
        def runner(inv):
            if inv.kind == "detect":
                return failed("not found")
            return OK

        out = execute(ParsedTask("serve_order", {"item": "cola"}, 1.0), runner)
        assert out.state is Outcome.COMPLETED_WITH_ASSIST
        kinds = [inv.kind for inv, _ in out.trace]
        assert kinds == ["navigate", "detect", "speak", "hand_over", "grasp", "navigate",
                         "find_placement", "place", "speak"]
        assert out.help_messages == ["I could not find the cola. Could you place it in my hand?"]
        # the spliced speak voices the help message
        assert out.trace[2][0].arg == out.help_messages[0]

    def test_help_line_keeps_braces_in_the_item_name(self):
        def runner(inv):
            return failed("not found") if inv.kind == "detect" else OK

        out = execute(ParsedTask("serve_order", {"item": "{x}"}, 1.0), runner)
        assert out.state is Outcome.COMPLETED_WITH_ASSIST
        assert out.help_messages == ["I could not find the {x}. Could you place it in my hand?"]
        assert [inv.arg for inv, _ in out.trace[1:4]] == ["{x}", out.help_messages[0], "{x}"]

    def test_unrecoverable_failure_aborts(self):
        def runner(inv):
            if inv.kind == "navigate":
                return failed("blocked")
            return OK

        out = execute(ParsedTask("serve_order", {"item": "cola"}, 1.0), runner)
        assert out.state is Outcome.FAILED
        assert [inv.kind for inv, _ in out.trace] == ["navigate"]

    def test_failed_recovery_skill_aborts(self):
        def runner(inv):
            if inv.kind in ("detect", "hand_over"):
                return failed("nope")
            return OK

        out = execute(ParsedTask("serve_order", {"item": "cola"}, 1.0), runner)
        assert out.state is Outcome.FAILED
        assert [inv.kind for inv, _ in out.trace][-1] == "hand_over"

    def test_missing_slot_rejected(self):
        with pytest.raises(TaskError):
            execute(ParsedTask("serve_order", {}, 1.0), lambda inv: OK)

    def test_unknown_task_rejected(self):
        with pytest.raises(TaskError):
            execute(ParsedTask("moonwalk", {}, 1.0), lambda inv: OK)

    def test_render_trace_shape(self):
        def runner(inv):
            return failed("not found") if inv.kind == "detect" else OK

        out = execute(ParsedTask("serve_order", {"item": "green tea"}, 1.0), runner)
        text = render_trace(out)
        lines = text.splitlines()
        assert lines[0] == "navigate(kitchen_table) -> OK"
        assert lines[1] == "detect(green tea) -> FAILED(not found)"
        assert lines[2].startswith("help: ")
        assert lines[-1] == "outcome: COMPLETED_WITH_ASSIST"


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


class UndeclaredRuleBackend:
    """The rule backend's answers from a backend that does not say whether it
    blocks, so the pipeline gives respond a thread of its own."""

    def __init__(self, menu):
        self.rules = RuleBackend(menu)
        self.respond_parses = []
        self.on_respond = lambda: None

    def understand(self, utterance):
        return self.rules.understand(utterance)

    def respond(self, utterance, parsed=None):
        self.on_respond()
        self.respond_parses.append(parsed)
        return self.rules.respond(utterance, parsed)


class RecordingRuleBackend(RuleBackend):
    """`RuleBackend`, non-blocking as declared, recording what respond sees."""

    def __init__(self, menu):
        super().__init__(menu)
        self.respond_parses = []

    def respond(self, utterance, parsed=None):
        self.respond_parses.append(parsed)
        return super().respond(utterance, parsed)


class FailingBackend:
    def understand(self, utterance):
        raise BackendError("understand down")

    def respond(self, utterance, parsed=None):
        raise BackendError("respond down")


class TestPipeline:
    def test_parallel_respond_completes_while_understand_blocked(self, menu):
        backend = LatchBackend()
        pipe = Pipeline(menu, backend, mode="parallel")
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

    def test_sequential_respond_sees_parse(self, menu):
        backend = LatchBackend()
        backend.latch.set()
        pipe = Pipeline(menu, backend, mode="sequential")
        pipe.handle("bring me a cola")
        utterance, parsed = backend.respond_inputs[0]
        assert parsed is not None
        assert backend.call_order == ["understand", "respond"]

    def test_both_backends_failing_still_returns(self, menu):
        pipe = Pipeline(menu, FailingBackend(), mode="parallel")
        parsed, response = pipe.handle("bring me a cola")
        assert parsed.name == "serve_order"  # rule fallback on understanding
        assert response == APOLOGY_LINE

    def test_every_utterance_yields_exactly_one_task(self, menu):
        pipe = Pipeline(menu, RuleBackend(menu), mode="parallel")
        for text in ("bring me a cola", "what's on the menu", "hello", ""):
            parsed, _ = pipe.handle(text)
            assert parsed.name in REGISTRY

    def test_parallel_respond_thread_lives_for_one_call(self, menu):
        pipe = Pipeline(menu, UndeclaredRuleBackend(menu), mode="parallel")
        before = set(threading.enumerate())
        respond_threads, wrong = [], []

        def count_respond_threads():
            respond_threads.append(sum(t.name.startswith("respond") for t in threading.enumerate()))

        def caller(k):
            for i in range(50):
                text = "bring me a cola" if (i + k) % 2 else "hello"
                parsed, response = pipe.handle(text)
                if parsed.name != ("serve_order" if (i + k) % 2 else "casual_chat") or not response:
                    wrong.append(text)
                count_respond_threads()

        pipe.backend.on_respond = count_respond_threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]  # 200 calls
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not wrong and len(respond_threads) == 400  # inside each respond and after each call
        assert 1 <= max(respond_threads) <= len(callers)  # at most one respond thread per caller
        assert set(threading.enumerate()) == before  # every respond thread was joined

    def test_parallel_respond_is_awaited_when_understand_raises(self, menu):
        class Broken(LatchBackend):
            def understand(self, utterance):
                raise RuntimeError("parser bug")

            def respond(self, utterance, parsed=None):
                self.latch.wait(timeout=10)
                return super().respond(utterance, parsed)

        backend = Broken()
        pipe = Pipeline(menu, backend, mode="parallel")
        threading.Timer(0.05, backend.latch.set).start()
        with pytest.raises(RuntimeError, match="parser bug"):
            pipe.handle("hi")
        assert backend.respond_done.is_set()  # handle returned only after respond did

    def test_inline_and_worker_paths_give_the_same_pairs(self):
        scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "restaurant_41.json")
        texts = [ev.text for _, ev in scenario.events if isinstance(ev, Utterance)]
        assert len(texts) == 44
        inline = RecordingRuleBackend(scenario.menu)
        worker = UndeclaredRuleBackend(scenario.menu)
        inline_pipe = Pipeline(scenario.menu, inline, mode="parallel")
        worker_pipe = Pipeline(scenario.menu, worker, mode="parallel")
        assert [inline_pipe.handle(t) for t in texts] == [worker_pipe.handle(t) for t in texts]
        assert inline.respond_parses == worker.respond_parses == [None] * 44

    def test_unknown_mode_rejected(self, menu):
        with pytest.raises(ValueError):
            Pipeline(menu, RuleBackend(menu), mode="sideways")
