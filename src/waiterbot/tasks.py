"""Task representations, the understand/respond pipeline and the executor.

A task representation is a named, fixed skill sequence with slot parameters
and optional per-skill recovery splices; the four of them (serving, cleaning,
menu, chat) are fixed in the read-only `REGISTRY`.  The pipeline turns an
utterance into a parsed task and a spoken response, either in parallel
(response never sees the parse; it gets a thread of its own only over a
backend that blocks) or sequentially (response is conditioned on the parse).
The executor runs skills in order; a failed skill with a recovery entry emits
a help request and splices the replacement subsequence instead of aborting.
"""

from __future__ import annotations

import threading
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
        for key in self.recovery:
            if key not in kinds:
                raise ValueError(f"{self.name}: recovery key {key!r} is not a listed skill")
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
        recovery={"detect": (SkillSpec("speak", "{help}"), SkillSpec("hand_over", "{item}"))},
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


def bypass_help(invocation: SkillInvocation, result: SkillResult) -> str:
    """Deterministic help request for a failed skill (offline templates)."""
    item = invocation.arg or "item"
    if not result.reason:
        return "I ran into a problem. Could you help me?"
    if invocation.kind == "detect":
        return f"I could not find the {item}. Could you place it in my hand?"
    if invocation.kind == "grasp":
        return f"I could not pick up the {item}. Could you hand it to me?"
    if invocation.kind == "navigate":
        return f"I cannot reach the {item}. Could you clear the way for me?"
    if invocation.kind in ("place", "find_placement"):
        return f"I could not find a spot for the {item}. Could you take it from me?"
    return "I ran into a problem. Could you help me?"


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
    queue: list[tuple[SkillSpec, bool]] = [(s, True) for s in rep.skills]  # (spec, recoverable)
    assisted = False

    while queue:
        spec, recoverable = queue.pop(0)
        inv = spec.bind({**task.slots, "help": help_messages[-1] if help_messages else ""})
        result = skill_runner(inv)
        trace.append((inv, result))
        if result.ok:
            continue
        recovery = rep.recovery.get(spec.kind) if recoverable else None
        if recovery is None:
            return TaskOutcome(Outcome.FAILED, trace, help_messages)
        assisted = True
        help_messages.append(bypass_help(inv, result))
        queue = [(s, False) for s in recovery] + queue
    state = Outcome.COMPLETED_WITH_ASSIST if assisted else Outcome.COMPLETED
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
    `BLOCKING` is true, or it does not say), respond runs on one worker thread,
    started by the first `handle` and kept until `close`, while understand runs
    on the caller's: the two waits overlap.  Over a backend that says it does
    not block, there is no wait to hide, so both run on the caller's thread,
    respond first; a thread hand-off would cost more than the calls."""

    def __init__(self, menu: Menu, backend, mode: str = "parallel"):
        if mode not in ("parallel", "sequential"):
            raise ValueError(f"unknown mode {mode!r}")
        self.menu = menu
        self.backend = backend
        self.mode = mode
        self._worker: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

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
        with self._lock:  # one worker, however many threads call handle
            if self._worker is None:
                self._worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="respond")
            respond_future = self._worker.submit(self._respond, utterance, None)
        try:
            parsed = self._understand(utterance)
        finally:
            response = respond_future.result()  # waited for even when understand raises
        return parsed, response

    def close(self) -> None:
        """Stop the respond worker, if one was started; a later `handle` starts a new one."""
        with self._lock:
            worker, self._worker = self._worker, None
        if worker is not None:
            worker.shutdown()
