"""Task representations, the understand/respond pipeline and the executor.

A task representation is a named, fixed skill sequence with slot parameters
and optional per-skill recovery splices; the four of them (serving, cleaning,
menu, chat) are fixed in the read-only `REGISTRY`.  The pipeline turns an
utterance into a parsed task and a spoken response, either in parallel
(response never sees the parse; it gets a thread of its own for the call only
over a backend that blocks) or sequentially (response is conditioned on the
parse).  The executor runs skills in order; a failed skill with a recovery
entry splices the replacement subsequence instead of aborting, and the speak
that opens every recovery is the help request.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping

from .llm import BackendError, Menu, parse_understand_line, rule_parse

SKILL_KINDS = ("navigate", "detect", "grasp", "place", "find_placement", "speak", "hand_over")

APOLOGY_LINE = "Sorry, I am having trouble speaking right now."


class TaskError(Exception):
    pass


@dataclass(frozen=True)
class SkillSpec:
    """A skill kind plus an argument template ("{item}" binds a task slot)."""

    kind: str
    arg: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in SKILL_KINDS:
            raise ValueError(f"unknown skill kind {self.kind!r}")

    def bind(self, slots: dict[str, str]) -> "SkillInvocation":
        arg = self.arg
        if arg is not None and "{" in arg:
            try:
                arg = arg.format(**slots)
            except (KeyError, IndexError) as e:
                raise TaskError(f"unbound template {self.arg!r}: {e}") from None
        return SkillInvocation(self.kind, arg)


@dataclass(frozen=True)
class SkillInvocation:
    kind: str
    arg: str | None = None

    def render(self) -> str:
        return f"{self.kind}({self.arg if self.arg is not None else ''})"


@dataclass(frozen=True)
class SkillResult:
    ok: bool
    reason: str = ""

    def render(self) -> str:
        return "OK" if self.ok else f"FAILED({self.reason})"


OK = SkillResult(True)


def failed(reason: str) -> SkillResult:
    return SkillResult(False, reason)


@dataclass(frozen=True)
class TaskRepresentation:
    name: str
    param_schema: tuple[str, ...]
    skills: tuple[SkillSpec, ...]
    recovery: Mapping[str, tuple[SkillSpec, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.skills:
            raise ValueError(f"{self.name}: skill list must not be empty")
        kinds = {s.kind for s in self.skills}
        for key, splice in self.recovery.items():
            if key not in kinds:
                raise ValueError(f"{self.name}: recovery key {key!r} is not a listed skill")
            if not splice or splice[0].kind != "speak" or not splice[0].arg:
                raise ValueError(f"{self.name}: recovery {key!r} must open with a speak that asks for help")
        # read-only over a copy, so no caller can change a checked representation
        object.__setattr__(self, "recovery", MappingProxyType(dict(self.recovery)))


@dataclass(frozen=True)
class ParsedTask:
    name: str
    slots: dict[str, str]
    confidence: float


class Outcome(Enum):
    COMPLETED = "COMPLETED"
    COMPLETED_WITH_ASSIST = "COMPLETED_WITH_ASSIST"
    FAILED = "FAILED"


@dataclass
class TaskOutcome:
    state: Outcome
    trace: list[tuple[SkillInvocation, SkillResult]]
    help_messages: list[str]


@dataclass(frozen=True)
class PromptPair:
    understand_prompt: str
    respond_prompt: str


REGISTRY: Mapping[str, TaskRepresentation] = MappingProxyType({rep.name: rep for rep in (
    TaskRepresentation(
        name="serve_order",
        param_schema=("item",),
        skills=(
            SkillSpec("navigate", "kitchen_table"),
            SkillSpec("detect", "{item}"),
            SkillSpec("grasp", "{item}"),
            SkillSpec("navigate", "caller_table"),
            SkillSpec("find_placement"),
            SkillSpec("place", "{item}"),
            SkillSpec("speak", "confirmation"),
        ),
        recovery={"detect": (SkillSpec("speak", "I could not find the {item}. Could you place it in my hand?"),
                             SkillSpec("hand_over", "{item}"))},
    ),
    TaskRepresentation(
        name="clean_table",
        param_schema=(),
        skills=(
            SkillSpec("navigate", "caller_table"),
            SkillSpec("detect", "dish"),
            SkillSpec("grasp", "dish"),
            SkillSpec("navigate", "kitchen_table"),
            SkillSpec("place", "dish"),
        ),
    ),
    TaskRepresentation(
        name="describe_menu",
        param_schema=(),
        skills=(SkillSpec("speak", "menu_description"),),
    ),
    TaskRepresentation(
        name="casual_chat",
        param_schema=(),
        skills=(SkillSpec("speak", "generated_response"),),
    ),
)})


ENVIRONMENT = "A small restaurant with customer tables and one kitchen table."

UNDERSTAND_SUFFIX = (
    "### OUTPUT FORMAT ###\n"
    "Reply with exactly one line of the form `task=<name>; slots=<key:value,...>`\n"
    "naming the task representation that matches the customer's request.\n"
)

RESPOND_SUFFIX = (
    "### OUTPUT FORMAT ###\n"
    "Reply with exactly one conversational sentence telling the customer\n"
    "what you will do next.\n"
)


def build_prompts(menu: Menu) -> PromptPair:
    """Shared base prompt + per-role output-format suffixes."""
    lines = ["You are a service robot working as a waiter.", "", "Environment:",
             ENVIRONMENT, "", "Menu:"]
    for i, item in enumerate(menu.items, start=1):
        lines.append(f"{i}. {item.name} - {item.description}")
    lines += ["", "Task representations:"]
    for i, (name, rep) in enumerate(REGISTRY.items(), start=1):
        params = ", ".join(rep.param_schema)
        chain = " -> ".join(f"{s.kind}({s.arg or ''})" for s in rep.skills)
        lines.append(f"{i}. {name}({params}): {chain}")
    lines.append("")
    base = "\n".join(lines)
    return PromptPair(base + UNDERSTAND_SUFFIX, base + RESPOND_SUFFIX)


SkillRunner = Callable[[SkillInvocation], SkillResult]


def execute(task: ParsedTask, skill_runner: SkillRunner) -> TaskOutcome:
    """Run the task's skills in order, splicing recovery sequences on failure."""
    if task.name not in REGISTRY:
        raise TaskError(f"unknown task {task.name!r}")
    rep = REGISTRY[task.name]
    missing = [p for p in rep.param_schema if p not in task.slots]
    if missing:
        raise TaskError(f"{task.name}: missing slots {missing}")

    trace: list[tuple[SkillInvocation, SkillResult]] = []
    help_messages: list[str] = []
    # each template is bound once; a slot value may hold "{", so bound text is never formatted again
    queue = [(spec.bind(task.slots), True) for spec in rep.skills]  # (invocation, recoverable)
    while queue:
        inv, recoverable = queue.pop(0)
        result = skill_runner(inv)
        trace.append((inv, result))
        if result.ok:
            continue
        recovery = rep.recovery.get(inv.kind) if recoverable else None
        if recovery is None:
            return TaskOutcome(Outcome.FAILED, trace, help_messages)
        spliced = [spec.bind(task.slots) for spec in recovery]
        help_messages.append(spliced[0].arg)  # the opening speak asks for help
        queue = [(inv, False) for inv in spliced] + queue
    state = Outcome.COMPLETED_WITH_ASSIST if help_messages else Outcome.COMPLETED
    return TaskOutcome(state, trace, help_messages)


def render_trace(outcome: TaskOutcome) -> str:
    """Stable text rendering used for golden files and the REPL."""
    lines = []
    consumed = 0
    for inv, res in outcome.trace:
        lines.append(f"{inv.render()} -> {res.render()}")
        if not res.ok and consumed < len(outcome.help_messages):
            lines.append(f"help: {outcome.help_messages[consumed]}")
            consumed += 1
    lines.append(f"outcome: {outcome.state.value}")
    return "\n".join(lines)


class Pipeline:
    """Understand + respond over one backend, in parallel or sequentially.

    In parallel mode respond gets the utterance only, never the parse, and has
    finished before `handle` returns.  Over a backend whose calls block (its
    `BLOCKING` is true, or it does not say), respond runs on a thread started
    for that call and joined before it returns, while understand runs on the
    caller's: the two waits overlap.  Over a backend that says it does not
    block, there is no wait to hide, so both run on the caller's thread,
    respond first; a thread hand-off would cost more than the calls."""

    def __init__(self, menu: Menu, backend, mode: str = "parallel"):
        if mode not in ("parallel", "sequential"):
            raise ValueError(f"unknown mode {mode!r}")
        self.menu = menu
        self.backend = backend
        self.mode = mode

    def _understand(self, utterance: str) -> ParsedTask:
        try:
            line = self.backend.understand(utterance)
        except BackendError:
            return rule_parse(utterance, self.menu)
        return parse_understand_line(line)

    def _respond(self, utterance: str, parsed: ParsedTask | None) -> str:
        try:
            return self.backend.respond(utterance, parsed)
        except BackendError:
            return APOLOGY_LINE

    def handle(self, utterance: str) -> tuple[ParsedTask, str]:
        """Returns (parsed task, response line); total for any utterance."""
        if self.mode == "sequential":
            parsed = self._understand(utterance)
            return parsed, self._respond(utterance, parsed)
        # parallel: the respond branch gets the utterance only, never the parse
        if not getattr(self.backend, "BLOCKING", True):
            response = self._respond(utterance, None)
            return self._understand(utterance), response
        with ThreadPoolExecutor(1, "respond") as pool:  # one respond thread, joined on leaving
            respond_future = pool.submit(self._respond, utterance, None)
            try:
                parsed = self._understand(utterance)
            finally:
                response = respond_future.result()  # waited for even when understand raises
        return parsed, response
