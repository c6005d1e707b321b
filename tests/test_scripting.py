"""Tests for the script-based DedisysTest application ([Ke07])."""

import pytest

from repro.apps.flightbooking import Flight, ticket_constraint_registration
from repro.evaluation import ScriptError, ScriptRunner

CLASSES = {"Flight": Flight}
CONSTRAINTS = {"ticket": ticket_constraint_registration}


def make_runner():
    return ScriptRunner(CLASSES, CONSTRAINTS)


FULL_STORY = """
# The §1.3 flight-booking story as a repeatable script.
nodes a b c
deploy Flight
constraint ticket
create a Flight f1 seats=80
invoke a Flight#f1 sell_tickets 70
assert-result 70
assert-attr b Flight#f1 sold 70
expect-error invoke a Flight#f1 sell_tickets 20
partition a | b c
assert-degraded true
invoke-accept a Flight#f1 sell_tickets 7
invoke-accept b Flight#f1 sell_tickets 8
assert-threats a 1
assert-threats b 1
heal
assert-degraded false
reconcile
"""


class TestScriptExecution:
    def test_full_story_runs(self):
        result = make_runner().run(FULL_STORY)
        # three successful invocations; the expected-error one is not counted
        assert result.invocations == 3
        assert result.assertions == 6
        assert result.expected_errors == 1
        assert result.reconciliations == 1
        assert result.simulated_seconds > 0

    def test_create_with_attributes(self):
        runner = make_runner()
        runner.run(
            """
            nodes a b
            deploy Flight
            create a Flight f1 seats=120 flight_number="OS 1"
            assert-attr b Flight#f1 seats 120
            assert-attr b Flight#f1 flight_number "OS 1"
            """
        )

    def test_delete(self):
        runner = make_runner()
        runner.run(
            """
            nodes a b
            deploy Flight
            create a Flight f1 seats=10
            assert-exists b Flight#f1 true
            delete a Flight#f1
            assert-exists b Flight#f1 false
            """
        )

    def test_crash_and_recover(self):
        runner = make_runner()
        runner.run(
            """
            nodes a b c
            deploy Flight
            create a Flight f1 seats=100
            crash c
            assert-degraded true
            invoke a Flight#f1 set_sold 5
            recover c
            reconcile
            assert-attr c Flight#f1 sold 5
            """
        )

    def test_comments_and_blank_lines_ignored(self):
        result = make_runner().run(
            """
            # a comment
            nodes a

            deploy Flight   # trailing comment
            """
        )
        assert result.steps == ["nodes a", "deploy Flight"]


class TestScriptErrors:
    def test_unknown_command(self):
        # ``config`` never was a command: it reports like any other typo.
        for command in ("frobnicate x", "config retries 3"):
            with pytest.raises(ScriptError) as exc_info:
                make_runner().run(f"nodes a\n{command}")
            assert exc_info.value.line_number == 2
            assert "unknown command" in exc_info.value.reason

    def test_command_before_nodes(self):
        with pytest.raises(ScriptError):
            make_runner().run("deploy Flight")

    def test_unknown_entity_class(self):
        with pytest.raises(ScriptError):
            make_runner().run("nodes a\ndeploy Ghost")

    def test_unknown_constraint(self):
        with pytest.raises(ScriptError):
            make_runner().run("nodes a\nconstraint bogus")

    def test_expect_error_on_success_fails(self):
        with pytest.raises(ScriptError) as exc_info:
            make_runner().run(
                """
                nodes a
                deploy Flight
                create a Flight f1 seats=10
                expect-error invoke a Flight#f1 sell_tickets 1
                """
            )
        assert "expected an error" in exc_info.value.reason

    def test_failed_assertion_raises(self):
        with pytest.raises(AssertionError):
            make_runner().run(
                """
                nodes a
                deploy Flight
                create a Flight f1 seats=10
                assert-attr a Flight#f1 seats 99
                """
            )

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ScriptError):
            make_runner().run("nodes a\nnodes b")

    def test_bad_reference_format(self):
        with pytest.raises(ScriptError):
            make_runner().run(
                """
                nodes a
                deploy Flight
                create a Flight f1 seats=10
                invoke a Flight-f1 get_seats
                """
            )


class TestValueParsing:
    def test_value_types(self):
        from repro.evaluation.scripting import _parse_value

        assert _parse_value("42") == 42
        assert _parse_value("2.5") == 2.5
        assert _parse_value("true") is True
        assert _parse_value("false") is False
        assert _parse_value("none") is None
        assert _parse_value('"hello"') == "hello"
        assert _parse_value("plain") == "plain"
