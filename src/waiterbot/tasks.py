"""Task representations, the understand/respond pipeline and the executor.

A task representation is a named, fixed skill sequence with slot parameters
and optional per-skill recovery splices.  The pipeline turns an utterance
into a parsed task and a spoken response, either in parallel (response never
sees the parse) or sequentially (response is conditioned on the parse).  The
executor runs skills in order; a failed skill with a recovery entry emits a
help request and splices the replacement subsequence instead of aborting.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

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
    recovery: dict[str, tuple[SkillSpec, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.skills:
            raise ValueError(f"{self.name}: skill list must not be empty")
        kinds = {s.kind for s in self.skills}
        for key in self.recovery:
            if key not in kinds:
                raise ValueError(f"{self.name}: recovery key {key!r} is not a listed skill")


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


Registry = dict[str, TaskRepresentation]


def default_registry() -> Registry:
    """The four built-in representations (serving, cleaning, menu, chat)."""
    serve = TaskRepresentation(
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
    )
    clean = TaskRepresentation(
        name="clean_table",
        param_schema=(),
        skills=(
            SkillSpec("navigate", "caller_table"),
            SkillSpec("detect", "dish"),
            SkillSpec("grasp", "dish"),
            SkillSpec("navigate", "kitchen_table"),
            SkillSpec("place", "dish"),
        ),
    )
    menu = TaskRepresentation(
        name="describe_menu",
        param_schema=(),
        skills=(SkillSpec("speak", "menu_description"),),
    )
    chat = TaskRepresentation(
        name="casual_chat",
        param_schema=(),
        skills=(SkillSpec("speak", "generated_response"),),
    )
    return {r.name: r for r in (serve, clean, menu, chat)}


def load_registry(doc: str | dict) -> Registry:
    """Registry from the JSON override format (see README for the schema)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    reps = {}
    for entry in doc["representations"]:
        skills = tuple(SkillSpec(s["kind"], s.get("arg")) for s in entry["skills"])
        recovery = {
            key: tuple(SkillSpec(s["kind"], s.get("arg")) for s in seq)
            for key, seq in entry.get("recovery", {}).items()
        }
        rep = TaskRepresentation(
            name=entry["name"],
            param_schema=tuple(entry.get("params", ())),
            skills=skills,
            recovery=recovery,
        )
        reps[rep.name] = rep
    if not reps:
        raise ValueError("registry must define at least one representation")
    return reps


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


def build_prompts(env_description: str, registry: Registry, menu: Menu) -> PromptPair:
    """Shared base prompt + per-role output-format suffixes."""
    if not env_description.strip():
        raise ValueError("environment description must not be empty")
    if not registry:
        raise ValueError("registry must not be empty")
    lines = ["You are a service robot working as a waiter.", "", "Environment:",
             env_description.strip(), "", "Menu:"]
    for i, item in enumerate(menu.items, start=1):
        lines.append(f"{i}. {item.name} - {item.description}")
    lines += ["", "Task representations:"]
    for i, name in enumerate(registry, start=1):
        rep = registry[name]
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


def execute(task: ParsedTask, registry: Registry, skill_runner: SkillRunner) -> TaskOutcome:
    """Run the task's skills in order, splicing recovery sequences on failure."""
    if task.name not in registry:
        raise TaskError(f"unknown task {task.name!r}")
    rep = registry[task.name]
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
    """Understand + respond over one backend, in parallel or sequentially."""

    def __init__(self, registry: Registry, menu: Menu, backend, mode: str = "parallel"):
        if mode not in ("parallel", "sequential"):
            raise ValueError(f"unknown mode {mode!r}")
        self.registry = registry
        self.menu = menu
        self.backend = backend
        self.mode = mode

    def _understand(self, utterance: str) -> ParsedTask:
        try:
            line = self.backend.understand(utterance)
        except BackendError:
            return rule_parse(utterance, self.menu, self.registry)
        return parse_understand_line(line, self.registry)

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
        with ThreadPoolExecutor(max_workers=2) as pool:
            respond_future = pool.submit(self._respond, utterance, None)
            understand_future = pool.submit(self._understand, utterance)
            response = respond_future.result()
            parsed = understand_future.result()
        return parsed, response
