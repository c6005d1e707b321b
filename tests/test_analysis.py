"""replint: engine, rule families, pragmas, baseline, reporters, CLI."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import cli
from repro.analysis.baseline import (
    BaselineComparison,
    compare,
    load_baseline,
    load_justifications,
    save_baseline,
    split_fingerprint,
)
from repro.analysis.engine import (
    Finding,
    all_rules,
    load_project,
    run_analysis,
)
from repro.analysis.reporting import REPORT_VERSION, render_json, render_text

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


def codes_of(result) -> list[str]:
    return [finding.code for finding in result.findings]


def run_family(fixture: str, prefix: str):
    selected = frozenset(
        rule.code for rule in all_rules() if rule.code.startswith(prefix)
    )
    return run_analysis(FIXTURES / fixture, codes=selected)


# ---------------------------------------------------------------- engine


class TestEngine:
    def test_rule_registry_covers_every_family(self):
        prefixes = {rule.code[:3] for rule in all_rules()}
        assert prefixes == {
            "DET", "MSG", "MET", "PRB", "TRN", "CON", "NOD", "REA",
        }

    def test_rule_codes_are_unique_and_described(self):
        rules = all_rules()
        assert len({rule.code for rule in rules}) == len(rules)
        for rule in rules:
            assert rule.name and rule.description

    def test_load_project_skips_pycache(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("x = 2\n")
        project = load_project(tmp_path)
        assert [module.rel_path for module in project.modules] == ["keep.py"]

    def test_findings_are_deterministically_ordered(self):
        first = run_family("det_bad", "DET")
        second = run_family("det_bad", "DET")
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]

    def test_constant_resolution_across_modules(self):
        project = load_project(FIXTURES / "msg_bad")
        assert project.constants["PING"] == "ping-req"


# ---------------------------------------------------------- determinism


class TestDeterminismRules:
    def test_bad_fixture_fires_every_rule(self):
        result = run_family("det_bad", "DET")
        assert codes_of(result) == ["DET001", "DET002", "DET003", "DET004"]

    def test_good_fixture_is_clean(self):
        result = run_family("det_good", "DET")
        assert result.findings == []

    def test_findings_carry_location(self):
        result = run_family("det_bad", "DET")
        for finding in result.findings:
            assert finding.path == "mod.py"
            assert finding.line > 0
            assert finding.location == f"mod.py:{finding.line}"


# ------------------------------------------------------------- messages


class TestMessageRules:
    def test_sent_but_unhandled(self):
        result = run_family("msg_bad", "MSG")
        unhandled = [f for f in result.findings if f.code == "MSG001"]
        assert len(unhandled) == 1
        assert "'orphan-kind'" in unhandled[0].message

    def test_handled_but_never_sent(self):
        result = run_family("msg_bad", "MSG")
        unsent = sorted(f.message for f in result.findings if f.code == "MSG002")
        assert len(unsent) == 2
        assert "'never-sent'" in unsent[0]
        assert "prefix 'replica-'" in unsent[1]

    def test_good_fixture_is_clean(self):
        result = run_family("msg_good", "MSG")
        assert result.findings == []


# -------------------------------------------------- constraint metadata


class TestConstraintMetadataRules:
    def test_affected_method_targets_must_exist(self):
        result = run_family("meta_bad", "META")
        messages = [f.message for f in result.findings if f.code == "META001"]
        assert len(messages) == 2
        assert any("Employee.terminate" in m for m in messages)
        assert any("'Ghost'" in m for m in messages)

    def test_relaxable_needs_min_degree(self):
        result = run_family("meta_bad", "META")
        messages = [f.message for f in result.findings if f.code == "META002"]
        assert len(messages) == 2  # the class and the ocl_invariant call

    def test_validate_reads_only_declared_state(self):
        result = run_family("meta_bad", "META")
        messages = sorted(f.message for f in result.findings if f.code == "META003")
        assert len(messages) == 3
        assert any("'grade'" in m for m in messages)
        assert any("get_bonus" in m for m in messages)
        assert any("frobnicate" in m for m in messages)

    def test_good_fixture_is_clean(self):
        result = run_family("meta_good", "META")
        assert result.findings == []


# ---------------------------------------------------------- probe purity


class TestProbePurityRule:
    def test_impure_probe_flagged(self):
        result = run_family("prb_bad", "PRB")
        messages = sorted(f.message for f in result.findings)
        assert len(messages) == 2
        assert any(".invoke()" in m for m in messages)
        assert any("rebuild_index()" in m for m in messages)

    def test_pure_probe_is_clean(self):
        result = run_family("prb_good", "PRB")
        assert result.findings == []


# ------------------------------------------------- transport clock boundary


class TestClockBoundaryRule:
    def test_leaks_outside_boundary_fire(self):
        result = run_family("trn_bad", "TRN")
        assert codes_of(result) == ["TRN001", "TRN001", "TRN001"]
        messages = sorted(finding.message for finding in result.findings)
        assert any("time.time()" in message for message in messages)
        assert any("time.monotonic()" in message for message in messages)
        assert any("DET001 pragma" in message for message in messages)

    def test_substrate_and_clean_consumers_pass(self):
        result = run_family("trn_good", "TRN")
        assert result.findings == []

    def test_package_respects_the_clock_boundary(self, package_analysis):
        """No module outside repro.sim/repro.transport reads a clock."""
        found = [f for f in package_analysis.findings if f.code == "TRN001"]
        assert found == [], [f.location for f in found]


# ---------------------------------------------------------- node ownership


class TestNodeOwnershipRule:
    def test_loops_over_other_nodes_fire(self):
        result = run_family("node_bad", "NODE")
        assert [finding.location for finding in result.findings] == [
            "core/recon.py:12",
            "core/recon.py:18",
            "core/recon.py:21",
            "replication/records.py:5",
        ]
        messages = [finding.message for finding in result.findings]
        assert "self.nodes[node] in prune() is keyed by a loop target" in messages[0]
        assert "self.threat_stores.values() walks every node's entry" in messages[1]
        assert "self.ccmgrs[member] in validators()" in messages[2]
        assert "manager.nodes.items()" in messages[3]

    def test_coordinator_access_and_wiring_pass(self):
        result = run_family("node_good", "NODE")
        assert result.findings == []

    def test_package_touches_only_the_acting_nodes_state(self, package_analysis):
        """Reconciliation reaches the other members by message alone."""
        found = [f for f in package_analysis.findings if f.code == "NODE001"]
        assert found == [], [f.location for f in found]


# ----------------------------------------------------------- concurrency


class TestConcurrencyRules:
    def test_unguarded_field_access(self):
        result = run_family("conc001_bad", "CONC")
        assert codes_of(result) == ["CONC001"]
        message = result.findings[0].message
        assert "'_items'" in message
        assert "Store.snapshot" in message
        assert "'_lock'" in message

    def test_lock_order_inversion_across_functions(self):
        result = run_family("conc003_bad", "CONC")
        assert codes_of(result) == ["CONC003"]
        assert "'_a', '_b'" in result.findings[0].message

    def test_lock_held_across_remote_ops(self):
        result = run_family("conc004_bad", "CONC")
        held = [f.message for f in result.findings if f.code == "CONC004"]
        assert len(held) == 2
        assert any("across socket sendall()" in m for m in held)
        assert any(
            "across call to _dial() in Sender.relay "
            "(reaches socket create_connection())" in m
            for m in held
        )

    def test_unlocked_lazy_init(self):
        result = run_family("conc005_bad", "CONC")
        assert codes_of(result) == ["CONC005"]
        assert "'_table' in Cache.table" in result.findings[0].message

    def test_disciplined_tree_is_clean(self):
        result = run_family("conc_good", "CONC")
        assert result.findings == []

    def test_interproc_fixture_is_clean(self):
        result = run_family("interproc", "CONC")
        assert result.findings == []


# ----------------------------------------------------------------- reach


class TestReachRule:
    """``reach/`` is a checkout: ``src/pkg`` plus ``benchmarks/``,
    ``examples/`` and a ``tests/`` file that calls ``only_tested``."""

    ROOT = FIXTURES / "reach" / "src" / "pkg"

    def unreached(self, root=ROOT):
        result = run_analysis(root, codes=frozenset({"REACH001"}))
        return {finding.message.split()[1] for finding in result.findings}

    def test_defs_only_tests_or_nothing_reach_are_flagged(self):
        assert self.unreached() == {"only_tested", "unused", "Record.orphan"}

    def test_every_kind_of_entry_point_reaches(self):
        # a _lazy re-export table, an apps/registry.py entry, a string in
        # benchmarks/, a getattr prefix, examples/, a __main__ module, a dunder
        unreached = self.unreached()
        for name in (
            "exported", "make_domain", "Handler", "Handler.handle",
            "Handler._cmd_ping", "used", "Record", "main", "Record.__repr__",
        ):
            assert name not in unreached

    def test_a_docstring_reaches_nothing(self):
        text = (self.ROOT / "core.py").read_text()
        assert "``only_tested``" in text and "only_tested" in self.unreached()

    def test_silent_outside_a_checkout(self):
        assert run_family("det_bad", "REACH").findings == []

    def checkout(self, tmp_path, files):
        """A checkout under ``tmp_path``: ``files`` maps paths relative to
        it to their text; returns the package root ``src/pkg``."""
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return tmp_path / "src" / "pkg"

    def test_a_nested_def_goes_with_its_function(self, tmp_path):
        root = self.checkout(tmp_path, {
            "src/pkg/mod.py": (
                "def outer():\n    def inner():\n        return 1\n    return inner\n\n\n"
                "def dead():\n    def helper():\n        return 2\n    return helper\n"
            ),
            "examples/run.py": "from pkg.mod import outer\nouter()\n",
        })
        assert self.unreached(root) == {"dead"}

    def test_an_unreached_class_is_one_finding(self, tmp_path):
        root = self.checkout(tmp_path, {
            "src/pkg/mod.py": "class Dead:\n    def run(self):\n        return self.stop()\n\n"
            "    def stop(self):\n        return 0\n",
            "examples/run.py": "import pkg.mod\nprint(pkg.mod.__name__, 'run', 'stop')\n",
        })
        assert self.unreached(root) == {"Dead"}

    def test_only_a_string_ending_in_an_underscore_is_a_dispatch_prefix(self, tmp_path):
        root = self.checkout(tmp_path, {
            "src/pkg/mod.py": (
                "class Checks:\n"
                "    def run(self, kind):\n"
                "        return getattr(self, f\"_validate_{kind}\")(), f\"m{kind}\"\n\n"
                "    def _validate_seats(self):\n        return True\n\n"
                "    def mode(self):\n        return 0\n"
            ),
            "examples/run.py": "from pkg.mod import Checks\nChecks().run('seats')\n",
        })
        assert self.unreached(root) == {"Checks.mode"}

    def test_only_a_name_built_for_getattr_is_a_dispatch_prefix(self, tmp_path):
        root = self.checkout(tmp_path, {
            "src/pkg/mod.py": (
                "def accessor(field):\n"
                "    def get():\n        return field\n"
                "    get.__name__ = f\"get_{field}\"\n"
                "    return get, \"_cmd_\" + field\n\n\n"
                "class Record:\n"
                "    def get_called(self):\n        return 0\n\n"
                "    def _cmd_ping(self):\n        return 1\n"
            ),
            "examples/run.py": "from pkg.mod import accessor, Record\naccessor('x')\nRecord()\n",
        })
        assert self.unreached(root) == {"Record.get_called", "Record._cmd_ping"}

    def test_a_module_nothing_imports_reaches_nothing(self, tmp_path):
        root = self.checkout(tmp_path, {
            "src/pkg/orphan.py": "from .helpers import helper\n\nVALUE = helper()\n",
            "src/pkg/helpers.py": "def helper():\n    return 1\n",
            "examples/run.py": "import pkg.helpers\n",
        })
        assert self.unreached(root) == {"helper"}

    def test_an_uncalled_function_added_to_the_package_fails_replint(self, tmp_path, capsys):
        checkout = Path(__file__).parents[1]
        for tree in ("src/repro", "benchmarks", "examples", "analysis"):
            shutil.copytree(
                checkout / tree, tmp_path / tree, ignore=shutil.ignore_patterns("__pycache__", "out")
            )
        module = tmp_path / "src" / "repro" / "cluster.py"
        module.write_text(module.read_text() + "\n\ndef nobody_calls_this():\n    return 0\n")
        rc = cli.main([
            "--root", str(tmp_path / "src" / "repro"), "--select", "REACH001",
            "--baseline", str(tmp_path / "analysis" / "baseline.json"),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REACH001 function nobody_calls_this is reached from no entry point" in out
        assert "1 new" in out and "0 expired" in out

    def test_a_reach_entry_needs_a_justification(self):
        finding = Finding(
            code="REACH001", message="function f is reached from no entry point", path="m.py", line=1
        )
        bare = compare([finding], {finding.fingerprint: 1}, justifications={})
        argued = compare(
            [finding], {finding.fingerprint: 1}, justifications={finding.fingerprint: "why"}
        )
        assert (bare.new, argued.baselined) == ([finding], [finding])

    def test_findings_are_line_free_and_anchored_at_the_def(self):
        result = run_analysis(self.ROOT, codes=frozenset({"REACH001"}))
        finding = next(f for f in result.findings if "unused" in f.message)
        assert (finding.path, finding.line) == ("core.py", 13)
        assert finding.fingerprint == (
            "REACH001:core.py:function unused is reached from no entry point"
        )


# -------------------------------------------------------------- pragmas


class TestUnusedPragma:
    def write(self, tmp_path, text):
        (tmp_path / "mod.py").write_text(text)
        return tmp_path

    def test_a_pragma_that_suppresses_nothing_fails(self, tmp_path, capsys):
        root = self.write(tmp_path, "x = 1  # replint: ignore[DET001]\n")
        result = run_analysis(root, codes=frozenset({"DET001"}))
        assert [(f.code, f.line, f.message) for f in result.findings] == [
            ("PRAGMA001", 1, "pragma ignore[DET001] suppresses no finding")
        ]
        assert cli.main(["--root", str(root), "--no-baseline"]) == 1
        capsys.readouterr()

    def test_only_pragmas_for_codes_that_ran_are_checked(self, tmp_path):
        root = self.write(tmp_path, "x = 1  # replint: ignore[DET001]\ny = 2  # replint: ignore\n")
        assert run_analysis(root, codes=frozenset({"DET002"})).findings == []
        full = run_analysis(root)
        assert [f.line for f in full.findings if f.code == "PRAGMA001"] == [1, 2]

    def test_a_comment_line_pragma_is_checked_against_its_target(self, tmp_path):
        root = self.write(
            tmp_path,
            "import time\n# why\n# replint: ignore[DET001]\n\nx = time.time()\n"
            "# replint: ignore[DET001]\ny = 2\n",
        )
        result = run_analysis(root, codes=frozenset({"DET001"}))
        assert [(f.code, f.line) for f in result.findings] == [("PRAGMA001", 6)]
        assert result.suppressed == 1

    def test_a_pragma_naming_another_code_is_unused(self, tmp_path):
        root = self.write(tmp_path, "import time\nx = time.time()  # replint: ignore[DET003]\n")
        result = run_analysis(root, codes=frozenset({"DET001", "DET003"}))
        assert [(f.code, f.line) for f in result.findings] == [("DET001", 2), ("PRAGMA001", 2)]

    def test_stacked_comment_pragmas_all_apply_to_the_next_code_line(self, tmp_path):
        root = self.write(
            tmp_path,
            "import time\n# replint: ignore[DET001]\n# replint: ignore[DET003]\n"
            "x = time.time() + id(time)\n",
        )
        result = run_analysis(root, codes=frozenset({"DET001", "DET003"}))
        assert (result.findings, result.suppressed) == ([], 2)

    def test_strings_and_quoting_comments_are_no_pragmas(self, tmp_path):
        root = self.write(
            tmp_path,
            '"""Write ``# replint: ignore[DET001]`` after the line."""\n'
            "#: ``# replint: ignore`` silences every rule\nx = 1\n",
        )
        assert not [f for f in run_analysis(root).findings if f.code == "PRAGMA001"]

    def test_the_used_fixture_pragmas_report_nothing(self):
        result = run_family("det_pragma", "DET")
        assert not [f for f in result.findings if f.code == "PRAGMA001"]


class TestPragmas:
    def test_every_hazard_suppressed(self):
        result = run_family("det_pragma", "DET")
        assert result.findings == []
        assert result.suppressed == 5

    def test_unsuppressed_codes_still_fire(self):
        # The pragma names DET001/DET003 only; a DET002 on the same line
        # would still fire — simulate by selecting a code the pragma does
        # not cover on the trailing-pragma fixture line.
        project = load_project(FIXTURES / "det_pragma")
        module = project.modules[0]
        line = next(
            lineno
            for lineno, codes in sorted(module.pragmas.items())
            if codes == frozenset({"DET001", "DET003"})
        )
        assert module.suppressed("DET001", line)
        assert module.suppressed("DET003", line)
        assert not module.suppressed("DET002", line)

    def test_ignore_all_pragma(self):
        project = load_project(FIXTURES / "det_pragma")
        module = project.modules[0]
        line = next(
            lineno
            for lineno, codes in sorted(module.pragmas.items())
            if codes == frozenset({"*"})
        )
        assert module.suppressed("DET004", line)


# ------------------------------------------------------------- baseline


def _finding(code="DET001", path="mod.py", message="boom", line=3) -> Finding:
    return Finding(code=code, message=message, path=path, line=line)


class TestBaseline:
    def test_fingerprint_is_line_free(self):
        a = _finding(line=3)
        b = _finding(line=99)
        assert a.fingerprint == b.fingerprint == "DET001:mod.py:boom"

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, [_finding(), _finding(), _finding(code="META001")])
        loaded = load_baseline(path)
        assert loaded == {
            "DET001:mod.py:boom": 2,
            "META001:mod.py:boom": 1,
        }

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}
        assert load_baseline(None) == {}

    def test_new_vs_baselined_vs_expired(self):
        findings = [_finding(), _finding(code="META001")]
        baseline = {
            _finding().fingerprint: 1,
            "MSG001:gone.py:fixed long ago": 1,
        }
        comparison = compare(findings, baseline)
        assert [f.code for f in comparison.new] == ["META001"]
        assert [f.code for f in comparison.baselined] == ["DET001"]
        assert comparison.expired == ["MSG001:gone.py:fixed long ago"]
        assert not comparison.ok

    def test_count_overflow_is_new(self):
        findings = [_finding(), _finding()]
        comparison = compare(findings, {_finding().fingerprint: 1})
        assert len(comparison.baselined) == 1
        assert len(comparison.new) == 1

    def test_clean_run_against_empty_baseline_is_ok(self):
        assert compare([], {}).ok

    def test_split_fingerprint(self):
        parts = split_fingerprint("CONC001:transport/x.py:field 'a': bad")
        assert parts["code"] == "CONC001"
        assert parts["path"] == "transport/x.py"
        assert parts["message"] == "field 'a': bad"


class TestBaselineJustifications:
    CONC = "CONC001:mod.py:boom"

    def conc_finding(self) -> Finding:
        return _finding(code="CONC001")

    def test_object_entries_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "findings": {
                        self.CONC: {"count": 2, "justification": "GIL-atomic read"},
                        "DET001:mod.py:boom": 1,
                    },
                }
            )
        )
        assert load_baseline(path) == {self.CONC: 2, "DET001:mod.py:boom": 1}
        assert load_justifications(path) == {self.CONC: "GIL-atomic read"}

    def test_baselined_conc_without_justification_is_new(self):
        finding = self.conc_finding()
        comparison = compare([finding], {self.CONC: 1}, justifications={})
        assert comparison.new == [finding]
        assert comparison.baselined == []

    def test_baselined_conc_with_justification_is_accepted(self):
        finding = self.conc_finding()
        comparison = compare(
            [finding], {self.CONC: 1}, justifications={self.CONC: "argued"}
        )
        assert comparison.new == []
        assert comparison.baselined == [finding]

    def test_non_conc_families_need_no_justification(self):
        finding = _finding()  # DET001
        comparison = compare(
            [finding], {finding.fingerprint: 1}, justifications={}
        )
        assert comparison.baselined == [finding]

    def test_update_carries_justification_forward(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(
            path,
            [self.conc_finding(), _finding()],
            justifications={self.CONC: "argued"},
        )
        assert load_justifications(path) == {self.CONC: "argued"}
        payload = json.loads(path.read_text())
        assert payload["findings"][self.CONC] == {
            "count": 1,
            "justification": "argued",
        }
        # The non-CONC entry stays in compact bare-count form.
        assert payload["findings"]["DET001:mod.py:boom"] == 1


# ------------------------------------------------------------ reporting


class TestReporting:
    def _comparison(self):
        return compare([_finding()], {})

    def test_json_schema_is_pinned(self):
        result = run_family("det_bad", "DET")
        payload = json.loads(render_json(result, compare(result.findings, {})))
        assert payload["version"] == REPORT_VERSION == 2
        assert set(payload) == {
            "version",
            "root",
            "rules",
            "summary",
            "new",
            "baselined",
            "expired",
            "expired_details",
        }
        assert set(payload["summary"]) == {
            "files_scanned",
            "new",
            "baselined",
            "expired",
            "suppressed",
            "ok",
        }
        for row in payload["new"]:
            assert set(row) == {"code", "message", "path", "line", "col", "fingerprint"}

    def test_json_is_deterministic(self):
        result = run_family("det_bad", "DET")
        comparison = compare(result.findings, {})
        assert render_json(result, comparison) == render_json(result, comparison)

    def test_text_report_shape(self):
        result = run_family("det_bad", "DET")
        text = render_text(result, compare(result.findings, {}))
        assert text.endswith("FAIL")
        assert "mod.py:" in text

    def test_text_report_ok_when_clean(self):
        result = run_family("det_good", "DET")
        text = render_text(result, compare(result.findings, {}))
        assert text.endswith("OK")

    def test_expired_entries_reported_with_code_and_file(self):
        result = run_family("det_good", "DET")
        comparison = compare(result.findings, {"DET001:gone.py:fixed": 1})
        text = render_text(result, comparison)
        assert "expired DET001 entry for gone.py" in text
        assert "'fixed'" in text
        assert text.endswith("FAIL")

    def test_expired_details_in_json(self):
        result = run_family("det_good", "DET")
        comparison = compare(result.findings, {"DET001:gone.py:fixed": 1})
        payload = json.loads(render_json(result, comparison))
        assert payload["expired"] == ["DET001:gone.py:fixed"]
        assert payload["expired_details"] == [
            {
                "fingerprint": "DET001:gone.py:fixed",
                "code": "DET001",
                "path": "gone.py",
                "message": "fixed",
            }
        ]


# ------------------------------------------------------------------ CLI


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        rc = cli.main(["--root", str(FIXTURES / "det_good"), "--no-baseline"])
        assert rc == 0
        assert capsys.readouterr().out.strip().endswith("OK")

    def test_dirty_tree_exits_one(self, capsys):
        rc = cli.main(["--root", str(FIXTURES / "det_bad"), "--no-baseline"])
        assert rc == 1
        assert capsys.readouterr().out.strip().endswith("FAIL")

    def test_baseline_silences_known_findings(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = cli.main(
            [
                "--root",
                str(FIXTURES / "det_bad"),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        assert rc == 0
        rc = cli.main(
            ["--root", str(FIXTURES / "det_bad"), "--baseline", str(baseline)]
        )
        capsys.readouterr()
        assert rc == 0

    def test_select_restricts_rules(self, capsys):
        rc = cli.main(
            [
                "--root",
                str(FIXTURES / "msg_bad"),
                "--no-baseline",
                "--select",
                "MSG002",
                "--format",
                "json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["MSG002"]
        assert {row["code"] for row in payload["new"]} == {"MSG002"}

    def test_unknown_select_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--select", "NOPE999"])
        assert excinfo.value.code == 2

    def test_only_expands_a_family(self, capsys):
        rc = cli.main(
            [
                "--root",
                str(FIXTURES / "conc003_bad"),
                "--no-baseline",
                "--only",
                "CONC",
                "--format",
                "json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == [
            "CONC001",
            "CONC003",
            "CONC004",
            "CONC005",
        ]
        assert {row["code"] for row in payload["new"]} == {"CONC003"}

    def test_only_accepts_exact_codes(self, capsys):
        rc = cli.main(
            [
                "--root",
                str(FIXTURES / "det_bad"),
                "--no-baseline",
                "--only",
                "DET001,DET004",
                "--format",
                "json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["DET001", "DET004"]

    def test_only_intersects_with_select(self, capsys):
        rc = cli.main(
            [
                "--root",
                str(FIXTURES / "det_bad"),
                "--no-baseline",
                "--select",
                "DET001,DET002",
                "--only",
                "DET",
                "--format",
                "json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["DET001", "DET002"]

    def test_only_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--only", "ZZZ"])
        assert excinfo.value.code == 2

    def test_only_empty_intersection_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--select", "DET001", "--only", "MSG"])
        assert excinfo.value.code == 2

    def test_output_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cli.main(
            [
                "--root",
                str(FIXTURES / "det_bad"),
                "--no-baseline",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["summary"]["ok"] is False

    def test_list_rules(self, capsys):
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "MSG001", "META001", "PRB001", "NODE001"):
            assert code in out


# ----------------------------------------------------- the real package


class TestSelfCheck:
    BASELINE = Path(__file__).parents[1] / "analysis" / "baseline.json"

    def test_package_is_clean_against_the_committed_baseline(self, package_analysis):
        """src/repro carries no replint finding beyond the committed
        baseline and the baseline has no expired entry; any new hazard or
        unreached def fails here before it fails CI."""
        comparison = compare(
            package_analysis.findings,
            load_baseline(self.BASELINE),
            justifications=load_justifications(self.BASELINE),
        )
        assert comparison.ok, [
            f"{f.location}: {f.code} {f.message}" for f in comparison.new
        ] + comparison.expired

    def test_the_committed_baseline_holds_only_justified_reach_entries(self):
        baseline = load_baseline(self.BASELINE)
        justifications = load_justifications(self.BASELINE)
        assert {split_fingerprint(entry)["code"] for entry in baseline} <= {"REACH001"}
        assert set(justifications) == set(baseline)

    def test_registry_matches_tracing_vocabulary(self):
        from repro.obs import EVENT_TYPES
        from repro.obs.registry import TRACE_EVENTS

        assert EVENT_TYPES == frozenset(TRACE_EVENTS)
        assert all(description for description, _ in TRACE_EVENTS.values())
