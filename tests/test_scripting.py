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


#: The whole stdout of ``examples/scripted_test.py``: the step log, the
#: expected error's message and the simulated seconds of both scripts.
SCRIPTED_TEST_STDOUT = """\
--- booking script ---
   nodes vienna graz linz
   deploy Flight
   constraint ticket
   create vienna Flight OS-101 seats=80 flight_number="OS 101"
   invoke vienna Flight#OS-101 sell_tickets 70
   invoke vienna Flight#OS-101 sell_tickets 20 -> error as expected: constraint 'TicketConstraint' violated on Flight#OS-101
   partition vienna | graz linz
   invoke-accept vienna Flight#OS-101 sell_tickets 7
   invoke-accept graz Flight#OS-101 sell_tickets 8
   heal
   reconcile
  => 3 invocations, 5 assertions, 1 expected errors, 0.549 simulated seconds

--- crash script ---
   nodes n1 n2 n3
   deploy Flight
   constraint ticket
   create n1 Flight LH-9 seats=200
   crash n3
   invoke n1 Flight#LH-9 sell_tickets 30
   recover n3
   reconcile
  => 1 invocations, 3 assertions, 0 expected errors, 0.483 simulated seconds

"""


def test_the_scripted_example_prints_its_pinned_log(capsys):
    import pathlib
    import runpy

    example = pathlib.Path(__file__).resolve().parent.parent / "examples" / "scripted_test.py"
    runpy.run_path(str(example), run_name="__main__")
    assert capsys.readouterr().out == SCRIPTED_TEST_STDOUT


class TestScriptTimeline:
    """A script is a ``Scenario`` played by ``OpDriver``: its lines fire
    in order, a ``tx`` line is one transaction, and every error of an op
    reaches the line that ran it."""

    def test_a_refused_tx_line_rolls_back_its_first_leg(self):
        result = make_runner().run(
            """
            nodes a b c
            deploy Flight
            constraint ticket
            create a Flight f1 seats=10
            expect-error tx a Flight#f1 sell_tickets 2 ; Flight#f1 sell_tickets 80
            assert-attr a Flight#f1 sold 0
            assert-attr b Flight#f1 sold 0
            assert-attr c Flight#f1 sold 0
            tx-accept a Flight#f1 sell_tickets 2 ; Flight#f1 get_sold
            assert-attr c Flight#f1 sold 2
            """
        )
        assert result.expected_errors == 1
        assert result.steps[4] == (
            "tx a Flight#f1 sell_tickets 2 ; Flight#f1 sell_tickets 80 -> error as expected: "
            "constraint 'TicketConstraint' violated on Flight#f1"
        )
        assert (result.invocations, result.last_result) == (1, [2, 2])

    def test_an_op_error_outside_the_blocking_set_is_still_expected(self):
        result = make_runner().run(
            """
            nodes a b
            deploy Flight
            create a Flight f1 seats=10
            expect-error invoke a Flight#f1 no_such_method
            expect-error create a Flight f1 seats=3
            invoke a Flight#f1 sell_tickets 4
            assert-attr b Flight#f1 sold 4
            """
        )
        assert result.expected_errors == 2
        assert result.steps[3] == (
            "invoke a Flight#f1 no_such_method -> error as expected: "
            "'Flight' object has no attribute 'no_such_method'"
        )
        assert result.steps[4] == (
            "create a Flight f1 seats=3 -> error as expected: 'Flight#f1 already exists on a'"
        )

    def test_a_failing_first_op_names_its_line(self):
        script = "nodes a b\ndeploy Flight\n{}create a Ghost g1\ncreate a Flight f1 seats=3"
        result = make_runner().run(script.format("expect-error "))
        assert result.steps[2] == (
            "create a Ghost g1 -> error as expected: \"class 'Ghost' not deployed on a\""
        )
        with pytest.raises(ScriptError) as exc_info:
            make_runner().run(script.format(""))
        assert exc_info.value.line_number == 3

    def test_an_invoke_after_a_delete_names_its_line(self):
        with pytest.raises(ScriptError) as exc_info:
            make_runner().run(
                """
                nodes a b
                deploy Flight
                create a Flight f1 seats=10
                delete a Flight#f1
                invoke b Flight#f1 get_sold
                """
            )
        assert exc_info.value.line_number == 6
        assert exc_info.value.reason == "'Flight#f1'"

    def test_a_reference_nothing_created_is_an_error_at_its_line(self):
        with pytest.raises(ScriptError) as exc_info:
            make_runner().run("nodes a\ndeploy Flight\ninvoke a Flight#ghost get_sold")
        assert exc_info.value.line_number == 3

    def test_lines_fire_in_order_and_leave_nothing_scheduled(self):
        runner = make_runner()
        result = runner.run(
            """
            nodes a b c
            deploy Flight
            partition a | b c
            assert-degraded true
            create a Flight f1 seats=10
            heal
            assert-degraded false
            invoke b Flight#f1 sell_tickets 1
            """
        )
        assert result.steps[2:] == [
            "partition a | b c",
            "create a Flight f1 seats=10",
            "heal",
            "invoke b Flight#f1 sell_tickets 1",
        ]
        assert len(runner.cluster.scheduler) == 0

    def test_the_clock_moves_one_gap_per_entry_only_before_the_first_charge(self):
        from repro.evaluation.scripting import GAP

        checks = "partition a | b\nassert-degraded true\nheal\nassert-degraded false\n"
        # Two fault events and four checks, at 0 to 5 GAP; nothing charges.
        result = make_runner().run("nodes a b\ndeploy Flight\n" + checks)
        assert result.simulated_seconds == 5 * GAP
        # After a create has charged, the same lines fire at once.
        create = "nodes a b\ndeploy Flight\ncreate a Flight f1 seats=3\n"
        alone = make_runner().run(create).simulated_seconds
        assert alone > 0
        assert make_runner().run(create + checks).simulated_seconds == alone
