"""Utterance parsing and response backends.

Two interchangeable backends: `RuleBackend` (deterministic pattern table, no
network) and `RemoteBackend` (OpenAI-style chat-completions endpoint, reached
through `HttpTransport` or any object with the same `post` method).  Both are
total: `understand` returns a `ParsedTask` and `respond` a line.  The remote
backend owns its protocol: it builds its prompts from the menu, decodes the
one-line reply grammar `task=<name>; slots=<k:v,...>`, and on a failed call
falls back to the rule parse or to `APOLOGY_LINE`.  Each backend states in its
class constant `BLOCKING` whether its calls wait on something outside the
process; the pipeline reads it to decide whether respond needs a thread of its
own.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from dataclasses import dataclass
from typing import Any
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from .geometry import shown
from .tasks import REGISTRY, ParsedTask, build_prompts


class BackendError(Exception):
    pass


class BackendUnavailable(BackendError):
    """Transport kept failing after the retry budget."""


class ProtocolError(BackendError):
    """The endpoint answered with a body we cannot use."""


class TransportError(Exception):
    """Retryable transport-level failure (connection, timeout, 5xx, 429)."""


# request settings of the one remote backend: deterministic sampling, and up to
# three retries 0.25, 0.5 and 1.0 s apart on a retryable transport failure
TEMPERATURE = 0.0
TIMEOUT_S = 10.0
MAX_RETRIES = 3
BACKOFF_S = 0.25
API_KEY_ENV = "LLM_API_KEY"  # the bearer token, when set

APOLOGY_LINE = "Sorry, I am having trouble speaking right now."  # a respond call that failed


@dataclass(frozen=True)
class MenuItem:
    name: str
    description: str

    def __post_init__(self) -> None:
        if not isinstance(self.description, str):
            raise ValueError(f"menu item description must be a string, got {shown(self.description)}")


class Menu:
    """At least one item; names must be unique after `_normalize` and come back
    unchanged from the `slots=item:<name>` line grammar: non-blank, with no
    comma, no line break and no leading or trailing whitespace."""

    def __init__(self, items: list[MenuItem]):
        if not items:
            raise ValueError("the menu must list at least one item")
        seen = set()
        for item in items:
            name = item.name
            if not isinstance(name, str):
                raise ValueError(f"menu item name must be a string, got {shown(name)}")
            if name != name.strip() or "," in name or name.splitlines() != [name]:  # "" splits into no lines
                raise ValueError(f"menu item name must be non-blank, with no comma, line break "
                                 f"or leading or trailing whitespace, got {shown(name)}")
            key = _normalize(name)
            if key in seen:
                raise ValueError(f"duplicate menu item {shown(name)}")
            seen.add(key)
        self.items = list(items)

    def names(self) -> list[str]:
        return [i.name for i in self.items]

    def description_text(self) -> str:
        parts = [f"{i.name} ({i.description})" for i in self.items]
        return "We have " + ", ".join(parts) + "."


class HttpTransport:
    """`urllib.request` transport: POSTs `body` as JSON and returns the JSON
    reply to a 200.  A connection failure, a timeout, 429 or 5xx raises
    TransportError, which `complete` retries; any other status, or a body that
    is not JSON, raises ProtocolError."""

    def post(self, url: str, headers: dict[str, str], body: dict[str, Any],
             timeout: float) -> dict[str, Any]:
        request = Request(url, data=json.dumps(body).encode(), headers=headers, method="POST")
        try:
            try:
                with urlopen(request, timeout=timeout) as resp:
                    status, raw = resp.status, resp.read()
            except HTTPError as e:  # a status outside 2xx; caught before its base class URLError
                with e:
                    status, raw = e.code, e.read()
        except (OSError, http.client.HTTPException) as e:  # URLError, timeouts, resets
            raise TransportError(str(e)) from e
        if status == 429 or status >= 500:
            raise TransportError(f"status {status}")
        if status != 200:
            raise ProtocolError(f"status {status}: {raw.decode(errors='replace')[:200]}")
        try:
            return json.loads(raw)
        except ValueError as e:
            raise ProtocolError(f"non-JSON body: {e}") from None


def complete(endpoint: str, model: str, messages: list[dict[str, str]], transport=None) -> str:
    """One chat completion via `transport` (default `HttpTransport`); exponential-backoff retries."""
    if transport is None:
        transport = HttpTransport()
    url = endpoint.rstrip("/") + "/v1/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {"model": model, "messages": messages, "temperature": TEMPERATURE}

    last: Exception | None = None
    for attempt in range(1 + MAX_RETRIES):
        try:
            doc = transport.post(url, headers, body, TIMEOUT_S)
            break
        except TransportError as e:
            last = e
            if attempt < MAX_RETRIES:
                time.sleep(BACKOFF_S * 2**attempt)
    else:
        raise BackendUnavailable(f"gave up after {1 + MAX_RETRIES} attempts: {last}")

    try:
        content = doc["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise ProtocolError(f"malformed completion body: {doc!r}") from None
    if not isinstance(content, str):
        raise ProtocolError(f"content is not text: {content!r}")
    return content


# --- rule-based parsing -----------------------------------------------------

SERVE_TRIGGERS = ("bring", "serve", "can i have", "i'd like")
CLEAN_TRIGGERS = ("clean", "clear", "take away")
MENU_TRIGGERS = ("menu", "what do you have", "recommend")


def _normalize(text: str) -> str:
    return text.replace("’", "'").casefold()


def _match_item(normalized: str, menu: Menu) -> str | None:
    """Longest menu item appearing in the utterance; ties keep menu order."""
    best: str | None = None
    for name in menu.names():
        if _normalize(name) in normalized:
            if best is None or len(name) > len(best):
                best = name
    return best


def rule_parse(utterance: str, menu: Menu) -> ParsedTask:
    """Deterministic pattern-table parser; total (falls back to casual_chat)."""
    u = _normalize(utterance)
    if any(t in u for t in SERVE_TRIGGERS):
        item = _match_item(u, menu)
        if item is not None:
            return ParsedTask("serve_order", {"item": item})
    if any(t in u for t in CLEAN_TRIGGERS):
        return ParsedTask("clean_table", {})
    if any(t in u for t in MENU_TRIGGERS):
        return ParsedTask("describe_menu", {})
    return ParsedTask("casual_chat", {})


def format_understand_line(parsed: ParsedTask) -> str:
    slots = ",".join(f"{k}:{v}" for k, v in sorted(parsed.slots.items()))
    return f"task={parsed.name}; slots={slots}"


def parse_understand_line(text: str, menu: Menu) -> ParsedTask:
    """Decode `task=<name>; slots=<k:v,...>`; anything malformed -> casual_chat.
    An item the menu does not list by exactly that name is malformed: the
    prompt lists the exact names."""
    fallback = ParsedTask("casual_chat", {})
    line = text.strip().splitlines()[0].strip() if text.strip() else ""
    if not line.startswith("task="):
        return fallback
    body = line[len("task="):]
    name, sep, slot_text = body.partition(";")
    name = name.strip()
    if not sep or name not in REGISTRY:
        return fallback
    slot_text = slot_text.strip()
    if not slot_text.startswith("slots="):
        return fallback
    slots: dict[str, str] = {}
    for pair in slot_text[len("slots="):].split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, sep2, value = pair.partition(":")
        if not sep2 or not key.strip() or not value.strip():
            return fallback
        slots[key.strip()] = value.strip()
    schema = REGISTRY[name].param_schema
    slots = {k: v for k, v in slots.items() if k in schema}
    if set(slots) != set(schema) or ("item" in slots and slots["item"] not in menu.names()):
        return fallback
    return ParsedTask(name, slots)


# --- backends ---------------------------------------------------------------

class RuleBackend:
    """Offline backend; understanding and responses from fixed rules."""

    BLOCKING = False  # answers in microseconds, in-process

    def __init__(self, menu: Menu):
        self.menu = menu

    def understand(self, utterance: str) -> ParsedTask:
        return rule_parse(utterance, self.menu)

    def respond(self, utterance: str, parsed=None) -> str:
        if parsed is not None:
            return self._respond_with(parsed)
        guess = rule_parse(utterance, self.menu)
        if guess.name == "serve_order":
            return "Sure! I will be right back with your order."
        return self._respond_with(guess)

    def _respond_with(self, parsed) -> str:
        if parsed.name == "serve_order":
            return f"Sure, one {parsed.slots['item']} coming right up."
        if parsed.name == "clean_table":
            return "Of course, I will clear the table."
        if parsed.name == "describe_menu":
            return self.menu.description_text()
        return "Happy to chat! Let me know if you need anything."


class RemoteBackend:
    """Chat-completions backend over a prompt pair with a shared base; a call
    that fails falls back to the rule parse or to `APOLOGY_LINE`."""

    BLOCKING = True  # each call waits on the endpoint

    def __init__(self, endpoint: str, model: str, menu: Menu, transport=None):
        self.endpoint = endpoint
        self.model = model
        self.menu = menu
        self.prompts = build_prompts(menu)
        self.transport = transport

    def _complete(self, system: str, user: str) -> str:
        messages = [{"role": "system", "content": system}, {"role": "user", "content": user}]
        return complete(self.endpoint, self.model, messages, transport=self.transport)

    def understand(self, utterance: str) -> ParsedTask:
        try:
            reply = self._complete(self.prompts.understand_prompt, utterance)
        except BackendError:
            return rule_parse(utterance, self.menu)
        return parse_understand_line(reply, self.menu)

    def respond(self, utterance: str, parsed=None) -> str:
        content = utterance
        if parsed is not None:
            content += "\n[understood: " + format_understand_line(parsed) + "]"
        try:
            return self._complete(self.prompts.respond_prompt, content)
        except BackendError:
            return APOLOGY_LINE
