import http.client
import io
import json
import threading
from urllib.error import HTTPError, URLError

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import StubTransport
from waiterbot import llm
from waiterbot.llm import (
    MAX_RETRIES,
    BackendUnavailable,
    HttpTransport,
    Menu,
    MenuItem,
    ProtocolError,
    RuleBackend,
    TransportError,
    complete,
    format_understand_line,
    parse_understand_line,
    rule_parse,
)
from waiterbot.tasks import REGISTRY, ParsedTask


@pytest.fixture
def menu():
    return Menu(
        [
            MenuItem("orange juice", "freshly squeezed"),
            MenuItem("juice", "plain juice"),
            MenuItem("cola", "a chilled cola"),
        ]
    )


class TestMenu:
    def test_duplicate_after_normalization_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Menu([MenuItem("Cola", ""), MenuItem("cola", "")])
        with pytest.raises(ValueError, match="duplicate"):
            Menu([MenuItem("chef’s salad", ""), MenuItem("Chef's salad", "")])

    @pytest.mark.parametrize("name", ["fish, chips", "fish\nchips", "fish\u2028chips", " cola", "cola\t"])
    def test_name_the_line_grammar_would_change_rejected(self, name):
        with pytest.raises(ValueError, match="no comma"):
            Menu([MenuItem(name, "")])

    @given(st.text(min_size=1))
    @settings(derandomize=True, max_examples=300)
    def test_every_accepted_name_survives_the_line(self, name):
        try:
            Menu([MenuItem(name, "")])
        except ValueError:
            assume(False)
        parsed = ParsedTask("serve_order", {"item": name}, 1.0)
        assert parse_understand_line(format_understand_line(parsed)) == parsed

    def test_description_text_lists_items(self, menu):
        text = menu.description_text()
        assert text.startswith("We have ")
        assert "cola (a chilled cola)" in text


class TestRuleParse:
    def test_bring_with_item(self, menu):
        parsed = rule_parse("Could you bring me an orange juice?", menu)
        assert parsed == ParsedTask("serve_order", {"item": "orange juice"}, 1.0)

    def test_longest_menu_match_wins(self, menu):
        parsed = rule_parse("I'd like orange juice please", menu)
        assert parsed.slots["item"] == "orange juice"

    def test_shorter_item_still_matches_alone(self, menu):
        parsed = rule_parse("please serve juice", menu)
        assert parsed.slots["item"] == "juice"

    def test_menu_question(self, menu):
        assert rule_parse("What do you have?", menu).name == "describe_menu"

    def test_clean_request(self, menu):
        assert rule_parse("please clear the table", menu).name == "clean_table"

    def test_fallback_to_casual_chat(self, menu):
        parsed = rule_parse("Nice weather today", menu)
        assert parsed == ParsedTask("casual_chat", {}, 0.5)

    def test_serve_trigger_without_item_falls_through(self, menu):
        parsed = rule_parse("bring me happiness", menu)
        assert parsed.name == "casual_chat"

    def test_unicode_apostrophe_normalized(self, menu):
        parsed = rule_parse("I’d like a cola", menu)
        assert parsed.name == "serve_order"

    def test_typographic_apostrophe_in_item_name(self):
        menu = Menu([MenuItem("chef’s salad", ""), MenuItem("cola", "")])
        for text in ("bring me chef’s salad", "bring me chef's salad"):
            assert rule_parse(text, menu) == ParsedTask("serve_order", {"item": "chef’s salad"}, 1.0)

    def test_total_over_arbitrary_text(self, menu):
        for text in ("", "???", "br1ng c0la", "   "):
            assert rule_parse(text, menu).name in REGISTRY


class TestUnderstandLine:
    def test_round_trip(self):
        parsed = ParsedTask("serve_order", {"item": "cola"}, 1.0)
        line = format_understand_line(parsed)
        assert line == "task=serve_order; slots=item:cola"
        assert parse_understand_line(line) == parsed

    def test_unknown_task_falls_back(self):
        parsed = parse_understand_line("task=fly_to_moon; slots=")
        assert parsed == ParsedTask("casual_chat", {}, 0.0)

    def test_garbage_falls_back(self):
        assert parse_understand_line("complete nonsense").name == "casual_chat"
        assert parse_understand_line("").name == "casual_chat"

    def test_missing_required_slot_falls_back(self):
        parsed = parse_understand_line("task=serve_order; slots=")
        assert parsed == ParsedTask("casual_chat", {}, 0.0)

    def test_extra_slots_dropped(self):
        parsed = parse_understand_line("task=serve_order; slots=item:cola,mood:happy")
        assert parsed.slots == {"item": "cola"}

    def test_never_raises(self):
        for text in ("task=", "task=serve_order", "task=serve_order; slots=item",
                     "task=serve_order; slots=:cola", "slots=item:cola"):
            parsed = parse_understand_line(text)
            assert parsed.name == "casual_chat"


ENDPOINT, MODEL = "http://llm.local", "demo"


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff delays `complete` asks for, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(llm.time, "sleep", delays.append)
    return delays


class Response:
    """What `urlopen` returns: a context manager with a status and a body."""

    def __init__(self, status, body=b""):
        self.status, self.body = status, body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def http_error(code, body=b""):
    return HTTPError(ENDPOINT, code, "reason", {}, io.BytesIO(body))


def serving(monkeypatch, make):
    """Patch `llm.urlopen` to return or raise a fresh `make()` on every call;
    returns the (request, timeout) pairs it was handed.  No socket is opened."""
    seen = []

    def fake_urlopen(request, timeout):
        seen.append((request, timeout))
        outcome = make()
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(llm, "urlopen", fake_urlopen)
    return seen


class TestComplete:
    def test_stub_returns_scripted_content_and_records(self):
        stub = StubTransport([StubTransport.reply("task=serve_order; slots=item:cola")])
        out = complete(ENDPOINT, MODEL, [{"role": "user", "content": "hi"}], transport=stub)
        assert out == "task=serve_order; slots=item:cola"
        assert len(stub.requests) == 1
        assert stub.requests[0]["url"].endswith("/v1/chat/completions")
        assert stub.requests[0]["body"]["messages"][0]["content"] == "hi"

    def test_missing_choices_is_protocol_error(self):
        stub = StubTransport([{"no_choices": True}])
        with pytest.raises(ProtocolError):
            complete(ENDPOINT, MODEL, [], transport=stub)

    def test_two_failures_then_success(self, sleeps):
        stub = StubTransport(
            [TransportError("boom"), TransportError("boom"), StubTransport.reply("ok")]
        )
        out = complete(ENDPOINT, MODEL, [], transport=stub)
        assert out == "ok"
        assert len(stub.requests) == 3
        assert sleeps == [0.25, 0.5]

    def test_exhausted_retries_raise_unavailable(self, sleeps):
        stub = StubTransport([TransportError("boom")] * (1 + MAX_RETRIES))
        with pytest.raises(BackendUnavailable):
            complete(ENDPOINT, MODEL, [], transport=stub)
        assert len(stub.requests) == 1 + MAX_RETRIES
        assert sleeps == [0.25, 0.5, 1.0]  # doubling from 0.25 s, none after the last attempt

    def test_without_transport_posts_over_http(self, monkeypatch):
        seen = serving(monkeypatch, lambda: Response(200, json.dumps(StubTransport.reply("ok")).encode()))
        assert complete(ENDPOINT, MODEL, []) == "ok"
        ((request, timeout),) = seen
        assert request.full_url == "http://llm.local/v1/chat/completions"
        assert request.get_method() == "POST"
        assert request.get_header("Content-type") == "application/json"
        assert json.loads(request.data) == {"model": MODEL, "messages": [], "temperature": llm.TEMPERATURE}
        assert timeout == llm.TIMEOUT_S

    def test_bearer_token_from_env(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sekrit")
        stub = StubTransport([StubTransport.reply("ok")])
        complete(ENDPOINT, MODEL, [], transport=stub)
        assert stub.requests[0]["headers"]["Authorization"] == "Bearer sekrit"


def post(timeout=1.0):
    return HttpTransport().post(ENDPOINT, {"Content-Type": "application/json"}, {"k": 1}, timeout)


class TestHttpTransport:
    def test_200_returns_the_json_body(self, monkeypatch):
        serving(monkeypatch, lambda: Response(200, b'{"a": [1, 2]}'))
        assert post() == {"a": [1, 2]}

    @pytest.mark.parametrize("code", [429, 503])
    def test_retryable_status_raises_transport_error_and_is_retried(self, monkeypatch, sleeps, code):
        seen = serving(monkeypatch, lambda: http_error(code, b"busy"))
        with pytest.raises(TransportError, match=f"status {code}"):
            post()
        seen.clear()
        with pytest.raises(BackendUnavailable, match=f"status {code}"):
            complete(ENDPOINT, MODEL, [])
        assert len(seen) == 1 + MAX_RETRIES
        assert len(sleeps) == MAX_RETRIES

    def test_client_error_status_raises_protocol_error_naming_it(self, monkeypatch):
        serving(monkeypatch, lambda: http_error(404, b"no such route" + b"x" * 300))
        with pytest.raises(ProtocolError) as info:
            post()
        assert str(info.value) == "status 404: no such route" + "x" * 187  # the first 200 characters

    def test_non_200_success_status_raises_protocol_error_naming_it(self, monkeypatch):
        seen = serving(monkeypatch, lambda: Response(204))
        with pytest.raises(ProtocolError, match="^status 204: $"):
            complete(ENDPOINT, MODEL, [])
        assert len(seen) == 1  # not retried

    @pytest.mark.parametrize("body", [b"<html>oops</html>", b"\xff\xfe", b""])
    def test_non_json_200_body_raises_protocol_error(self, monkeypatch, body):
        serving(monkeypatch, lambda: Response(200, body))
        with pytest.raises(ProtocolError, match="non-JSON body"):
            post()

    @pytest.mark.parametrize("error", [URLError(ConnectionRefusedError(111, "refused")),
                                       TimeoutError("timed out"),
                                       http.client.BadStatusLine("garbage")],
                             ids=["URLError", "TimeoutError", "HTTPException"])
    def test_connection_failures_raise_transport_error(self, monkeypatch, sleeps, error):
        seen = serving(monkeypatch, lambda: error)
        with pytest.raises(TransportError):
            post()
        seen.clear()
        with pytest.raises(BackendUnavailable):
            complete(ENDPOINT, MODEL, [])
        assert len(seen) == 1 + MAX_RETRIES

    def test_timeout_reading_an_error_body_raises_transport_error(self, monkeypatch):
        class SlowBody(io.RawIOBase):
            def readinto(self, b):
                raise TimeoutError("timed out")

        serving(monkeypatch, lambda: HTTPError(ENDPOINT, 404, "reason", {}, SlowBody()))
        with pytest.raises(TransportError, match="timed out"):
            post()


class TestRuleBackendOffline:
    def test_no_network_activity(self, menu, monkeypatch):
        def poisoned_post(*args, **kwargs):
            raise AssertionError("the rule backend and a stub transport must never touch the network")

        monkeypatch.setattr(llm, "urlopen", poisoned_post)
        backend = RuleBackend(menu)
        backend.understand("bring me a cola")
        backend.respond("bring me a cola")
        stub = StubTransport([StubTransport.reply("ok")])
        complete(ENDPOINT, MODEL, [], transport=stub)

    def test_understand_emits_wire_line(self, menu):
        line = RuleBackend(menu).understand("bring me a cola")
        assert line == "task=serve_order; slots=item:cola"

    def test_respond_with_parse_names_item(self, menu):
        backend = RuleBackend(menu)
        parsed = ParsedTask("serve_order", {"item": "cola"}, 1.0)
        assert "cola" in backend.respond("bring me a cola", parsed)


class TestRemoteBackendIntegration:
    def test_pipeline_over_stubbed_wire(self, menu):
        from waiterbot.llm import RemoteBackend
        from waiterbot.tasks import Pipeline, build_prompts

        stub = StubTransport(
            [
                StubTransport.reply("task=serve_order; slots=item:cola"),
                StubTransport.reply("One cola, coming right up!"),
            ]
        )
        prompts = build_prompts(menu)
        backend = RemoteBackend(ENDPOINT, MODEL, prompts, transport=stub)
        pipe = Pipeline(menu, backend, mode="sequential")
        parsed, response = pipe.handle("bring me a cola")
        assert parsed == ParsedTask("serve_order", {"item": "cola"}, 1.0)
        assert response == "One cola, coming right up!"
        bodies = [r["body"] for r in stub.requests]
        assert bodies[0]["messages"][0]["content"] == prompts.understand_prompt
        assert bodies[1]["messages"][0]["content"] == prompts.respond_prompt
        # sequential mode feeds the parse into the respond request
        assert "task=serve_order; slots=item:cola" in bodies[1]["messages"][1]["content"]
        assert bodies[0]["model"] == "demo"

    def test_parallel_respond_completes_while_understand_is_held(self, menu):
        from waiterbot.llm import RemoteBackend
        from waiterbot.tasks import Pipeline, build_prompts

        prompts = build_prompts(menu)

        class LatchedTransport(StubTransport):
            """Holds the understand request on a latch; answers respond only
            once understand is in flight, so the two must overlap."""

            def __init__(self):
                super().__init__([])
                self.understanding = threading.Event()
                self.latch = threading.Event()
                self.responded = threading.Event()

            def post(self, url, headers, body, timeout):
                self.requests.append({"url": url, "headers": headers, "body": body})
                if body["messages"][0]["content"] == prompts.understand_prompt:
                    self.understanding.set()
                    assert self.latch.wait(timeout=10)
                    return self.reply("task=serve_order; slots=item:cola")
                assert self.understanding.wait(timeout=10)
                self.responded.set()
                return self.reply("One moment, please.")

        stub = LatchedTransport()
        pipe = Pipeline(menu, RemoteBackend(ENDPOINT, MODEL, prompts, transport=stub), mode="parallel")
        out = {}
        caller = threading.Thread(target=lambda: out.setdefault("r", pipe.handle("bring me a cola")))
        caller.start()
        try:
            assert stub.responded.wait(timeout=10)
            assert not stub.latch.is_set()  # respond finished while understand was held
        finally:
            stub.latch.set()
            caller.join(timeout=10)
        assert out["r"] == (ParsedTask("serve_order", {"item": "cola"}, 1.0), "One moment, please.")
        respond_body = next(r["body"] for r in stub.requests
                            if r["body"]["messages"][0]["content"] == prompts.respond_prompt)
        assert respond_body["messages"][1]["content"] == "bring me a cola"  # no [understood: ...]

    def test_understand_failure_falls_back_to_rules(self, menu, sleeps):
        from waiterbot.llm import RemoteBackend
        from waiterbot.tasks import Pipeline, build_prompts

        stub = StubTransport([TransportError("down")] * 8)
        backend = RemoteBackend(ENDPOINT, MODEL, build_prompts(menu), transport=stub)
        pipe = Pipeline(menu, backend, mode="sequential")
        parsed, response = pipe.handle("bring me a cola")
        assert parsed.name == "serve_order"  # rule fallback parsed it
        from waiterbot.tasks import APOLOGY_LINE

        assert response == APOLOGY_LINE
