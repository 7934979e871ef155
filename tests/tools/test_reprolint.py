"""Self-tests for the reprolint static analyzer.

Every rule gets (at least) a true-positive fixture, a clean negative,
and a pragma-suppression check; the framework tests cover the baseline
workflow and the CLI; the end-to-end test pins the real tree clean so a
regression in either the code or the linter shows up here first.
"""

import json
from pathlib import Path

import pytest

import tools.reprolint.rules  # noqa: F401  (registers the catalog)
from tools.reprolint.cli import main as reprolint_main
from tools.reprolint.engine import lint_paths, load_project, module_name_for
from tools.reprolint.findings import (Finding, load_baseline,
                                      split_against_baseline, write_baseline)
from tools.reprolint.registry import all_rules, resolve_rule_token

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint(tmp_path, sources, select=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint those files
    (only those — successive calls in one test stay independent)."""
    written = []
    for relpath, source in sources.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        written.append(str(path))
    return lint_paths(written, root=tmp_path,
                      select=set(select) if select else None)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# ---------------------------------------------------------------- framework


def test_every_rule_has_docstring_and_unique_id():
    rules = all_rules()
    assert len(rules) >= 10
    assert len({info.id for info in rules}) == len(rules)
    for info in rules:
        assert info.doc.strip(), info.id
        assert "Why:" in info.doc, f"{info.id} docstring must explain why"


def test_resolve_rule_token_accepts_id_and_slug():
    assert resolve_rule_token("D101") == "D101"
    assert resolve_rule_token("set-iteration") == "D101"
    assert resolve_rule_token("unknown-thing") == "unknown-thing"


def test_module_name_for_strips_src_and_init(tmp_path):
    assert module_name_for(tmp_path / "src/repro/ce/depgraph.py",
                           tmp_path) == "repro.ce.depgraph"
    assert module_name_for(tmp_path / "src/repro/ce/__init__.py",
                           tmp_path) == "repro.ce"
    assert module_name_for(tmp_path / "benchmarks/run.py",
                           tmp_path) == "benchmarks.run"


def test_type_checking_imports_are_excluded(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from x import Y\n",
        encoding="utf-8")
    project = load_project([tmp_path], root=tmp_path)
    assert project.imports["mod"] == [("typing.TYPE_CHECKING", 1)]


def test_baseline_grandfathers_up_to_count(tmp_path):
    old = Finding(rule_id="D101", path="a.py", line=3,
                  message="m", snippet="for x in s:")
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, [old])
    baseline = load_baseline(baseline_path)
    # The same finding on a shifted line is still grandfathered...
    shifted = Finding(rule_id="D101", path="a.py", line=9,
                      message="m", snippet="for x in s:")
    new, grandfathered = split_against_baseline([shifted], baseline)
    assert not new and len(grandfathered) == 1
    # ...but a second copy of the same sin is a new finding.
    new, grandfathered = split_against_baseline([shifted, old], baseline)
    assert len(new) == 1 and len(grandfathered) == 1


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}),
                    encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(path)


# ------------------------------------------------------------- determinism


SET_ITERATION_TP = """
def f(items):
    s = set(items)
    for x in s:
        print(x)
"""


def test_d101_flags_set_iteration(tmp_path):
    findings = lint(tmp_path, {"mod.py": SET_ITERATION_TP},
                    select={"D101"})
    assert rule_ids(findings) == ["D101"]


def test_d101_clean_on_sorted_and_dict(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
def f(items):
    s = set(items)
    for x in sorted(s):
        print(x)
    d = dict.fromkeys(items)
    for x in d:
        print(x)
"""}, select={"D101"})
    assert findings == []


def test_d101_pragma_suppresses(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
def f(items):
    s = set(items)
    for x in s:  # reprolint: disable=D101
        print(x)
"""}, select={"D101"})
    assert findings == []


def test_d101_sees_annotations_and_comprehensions(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
from typing import Set

def f(s: Set[str]):
    return [x for x in s]

def g(a, b):
    u = set(a) | set(b)
    return min(u)
"""}, select={"D101"})
    assert len(findings) == 2


def test_d102_flags_wall_clock_outside_benchmarks(tmp_path):
    source = """
import time

def f():
    return time.time()
"""
    assert rule_ids(lint(tmp_path, {"src/repro/x.py": source},
                         select={"D102"})) == ["D102"]
    # The same call is fine in benchmarks/ (harness timing).
    assert lint(tmp_path, {"benchmarks/x.py": source},
                select={"D102"}) == []


def test_d102_clean_on_env_now(tmp_path):
    findings = lint(tmp_path, {"src/repro/x.py": """
def f(env):
    return env.now
"""}, select={"D102"})
    assert findings == []


def test_d103_flags_global_random(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
import random

def f():
    return random.random() + random.randint(0, 3)
"""}, select={"D103"})
    assert rule_ids(findings) == ["D103", "D103"]


def test_d103_clean_on_seeded_instance(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
import random

def f(seed):
    rng = random.Random(seed)
    return rng.random()
"""}, select={"D103"})
    assert findings == []


def test_d104_flags_id_as_sort_key(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
def f(nodes):
    return sorted(nodes, key=id)

def g(nodes):
    nodes.sort(key=lambda n: hash(n))
"""}, select={"D104"})
    assert rule_ids(findings) == ["D104", "D104"]


def test_d104_clean_on_value_key(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
def f(nodes):
    return sorted(nodes, key=lambda n: n.tx_id)
"""}, select={"D104"})
    assert findings == []


def test_d105_flags_env_read_outside_config(tmp_path):
    source = """
import os

def f():
    return os.environ.get("FOO"), os.getenv("BAR"), os.environ["BAZ"]
"""
    findings = lint(tmp_path, {"src/repro/ce/x.py": source},
                    select={"D105"})
    assert rule_ids(findings) == ["D105", "D105", "D105"]
    # Config entry points and benchmarks may read the environment.
    assert lint(tmp_path, {"src/repro/core/config.py": source},
                select={"D105"}) == []
    assert lint(tmp_path, {"benchmarks/x.py": source},
                select={"D105"}) == []


# ---------------------------------------------------------------- layering


def test_l201_flags_upward_import(tmp_path):
    findings = lint(tmp_path, {
        "src/repro/sim/environment.py": "from repro.ce import controller\n",
    }, select={"L201"})
    assert rule_ids(findings) == ["L201"]


def test_l201_allows_documented_edges(tmp_path):
    findings = lint(tmp_path, {
        "src/repro/ce/runner.py": "from repro.sim import Environment\n",
        "src/repro/storage/kvstore.py": "from repro.crypto import digest\n",
        "src/repro/core/cluster.py": "from repro.ce import runner\n",
    }, select={"L201"})
    assert findings == []


def test_l201_flags_production_import_of_tests(tmp_path):
    findings = lint(tmp_path, {
        "src/repro/ce/x.py": "from tests.conftest import env\n",
    }, select={"L201"})
    assert rule_ids(findings) == ["L201"]


def test_l201_pragma_suppresses(tmp_path):
    findings = lint(tmp_path, {
        "src/repro/sim/x.py":
            "from repro.ce import controller  # reprolint: disable=L201\n",
    }, select={"L201"})
    assert findings == []


def test_l202_flags_import_cycle(tmp_path):
    findings = lint(tmp_path, {
        "src/repro/ce/a.py": "from repro.ce import b\n",
        "src/repro/ce/b.py": "from repro.ce import a\n",
    }, select={"L202"})
    assert rule_ids(findings) == ["L202"]
    assert "repro.ce.a -> repro.ce.b" in findings[0].message


def test_l202_clean_on_acyclic_graph(tmp_path):
    findings = lint(tmp_path, {
        "src/repro/ce/a.py": "from repro.ce import b\n",
        "src/repro/ce/b.py": "import json\n",
    }, select={"L202"})
    assert findings == []


# ------------------------------------------------------------- consistency


def test_c301_flags_missing_field_in_delta(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
from dataclasses import dataclass

@dataclass
class Stats:
    hits: int = 0
    misses: int = 0

    def snapshot(self):
        return Stats(hits=self.hits, misses=self.misses)

    def delta(self, since):
        return Stats(hits=self.hits - since.hits)
"""}, select={"C301"})
    assert rule_ids(findings) == ["C301"]
    assert "misses" in findings[0].message


def test_c301_clean_on_generic_implementation(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
from dataclasses import dataclass, replace

@dataclass
class Stats:
    hits: int = 0
    misses: int = 0

    def snapshot(self):
        return replace(self)

    def delta(self, since):
        return Stats(**{name: getattr(self, name) - getattr(since, name)
                        for name in vars(self)})
"""}, select={"C301"})
    assert findings == []


def test_c302_flags_unbacked_result_counter(tmp_path):
    collector = """
class MetricsCollector:
    def __init__(self):
        self.cc_path_queries = 0
"""
    result = """
from dataclasses import dataclass

@dataclass
class ClusterResult:
    committed: int = 0
    cc_path_queries: int = 0
    cc_orphan_counter: int = 0
"""
    findings = lint(tmp_path, {"collector.py": collector,
                               "result.py": result}, select={"C302"})
    assert rule_ids(findings) == ["C302"]
    assert "cc_orphan_counter" in findings[0].message


def test_c302_clean_when_all_counters_backed(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
from dataclasses import dataclass

class MetricsCollector:
    def __init__(self):
        self.cc_path_queries = 0

@dataclass
class ClusterResult:
    committed: int = 0
    cc_path_queries: int = 0
"""}, select={"C302"})
    assert findings == []


def test_c303_flags_unbounded_queue_loop(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
def worker(queue):
    while True:
        item = queue.get()
        item.run()
"""}, select={"C303"})
    assert rule_ids(findings) == ["C303"]


def test_c303_clean_on_sentinel_or_timeout(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
SHUTDOWN = object()

def worker(queue):
    while True:
        item = queue.get()
        if item is SHUTDOWN:
            return
        item.run()

def poller(queue):
    while True:
        item = queue.get(timeout=1.0)
        item.run()
"""}, select={"C303"})
    assert findings == []


def test_c303_ignores_dict_get(tmp_path):
    findings = lint(tmp_path, {"mod.py": """
def f(mapping, keys):
    while keys:
        value = mapping.get(keys.pop())
        print(value)
"""}, select={"C303"})
    assert findings == []


# --------------------------------------------------------------------- CLI


def test_cli_exit_codes_and_baseline_workflow(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(SET_ITERATION_TP, encoding="utf-8")
    baseline = tmp_path / "baseline.json"

    assert reprolint_main([str(target), "--baseline", str(baseline),
                           "--write-baseline"]) == 0
    # Grandfathered: same findings, exit 0.
    assert reprolint_main([str(target), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "grandfathered" in out
    # A second copy of the sin exceeds the baseline budget: exit 1.
    target.write_text(SET_ITERATION_TP + SET_ITERATION_TP.replace("f(", "g("),
                      encoding="utf-8")
    assert reprolint_main([str(target), "--baseline", str(baseline)]) == 1
    # --no-baseline reports everything.
    assert reprolint_main([str(target), "--no-baseline"]) == 1


def test_cli_rejects_unknown_rule_and_missing_path(tmp_path):
    target = tmp_path / "empty.py"
    target.write_text("", encoding="utf-8")
    assert reprolint_main([str(target), "--select", "NOPE"]) == 2
    assert reprolint_main([str(tmp_path / "absent.py")]) == 2


def test_cli_list_rules(capsys):
    assert reprolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D101", "L201", "C303"):
        assert rule_id in out


# --------------------------------------------------------------- end-to-end


def test_real_tree_is_clean_without_baseline():
    """The shipped source lints clean with ZERO grandfathered findings —
    new findings mean either a real defect or a rule that needs tuning,
    and both belong in the PR that introduced them."""
    findings = lint_paths(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks"),
         str(REPO_ROOT / "examples")],
        root=REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_shipped_baseline_is_empty():
    baseline = json.loads(
        (REPO_ROOT / "tools/reprolint/baseline.json").read_text())
    assert baseline == {"version": 1, "findings": []}
