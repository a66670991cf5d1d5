"""Table 3 substrate: the benign SPEC-like workloads run alert-free."""

import pytest

from repro.apps.spec import SPEC_WORKLOADS, workload_by_name
from repro.attacks.replay import run_minic
from repro.defenses.policy import PointerTaintPolicy
from repro.evalx.experiments import run_table3


@pytest.fixture(scope="module")
def workload_results():
    """Run every workload once per test module (they are deterministic)."""
    results = {}
    for workload in SPEC_WORKLOADS:
        results[workload.name] = run_minic(
            workload.source, PointerTaintPolicy(), stdin=workload.make_input()
        )
    return results


class TestWorkloadsRunClean:
    @pytest.mark.parametrize("name", [w.name for w in SPEC_WORKLOADS])
    def test_exits_without_alert(self, workload_results, name):
        result = workload_results[name]
        assert result.outcome == "exit", f"{name}: {result.describe()}"
        assert result.sim.stats.alerts == 0

    @pytest.mark.parametrize("name", [w.name for w in SPEC_WORKLOADS])
    def test_no_tainted_dereference_even_uncounted(self, workload_results, name):
        """Not only no alerts: no tainted pointer was ever dereferenced."""
        assert workload_results[name].sim.stats.tainted_dereferences == 0

    @pytest.mark.parametrize("name", [w.name for w in SPEC_WORKLOADS])
    def test_consumes_external_input(self, workload_results, name):
        """The study is only meaningful if tainted data flows through."""
        stats = workload_results[name].sim.stats
        assert stats.input_bytes_tainted > 100
        assert stats.tainted_results > 0


class TestWorkloadCorrectness:
    def test_bzip2_roundtrip_lossless(self, workload_results):
        assert "errors=0" in workload_results["BZIP2"].stdout

    def test_gcc_compiles_all_expressions(self, workload_results):
        assert "60 expressions" in workload_results["GCC"].stdout
        assert "push" in workload_results["GCC"].stdout

    def test_gzip_finds_matches(self, workload_results):
        stdout = workload_results["GZIP"].stdout
        assert "matches=" in stdout
        matches = int(stdout.split("matches=")[1].split()[0])
        assert matches > 0  # highly repetitive input must compress

    def test_mcf_assignment_complete(self, workload_results):
        assert "18 rows" in workload_results["MCF"].stdout

    def test_parser_balanced_corpus(self, workload_results):
        assert "unbalanced=0" in workload_results["PARSER"].stdout

    def test_vpr_anneals(self, workload_results):
        stdout = workload_results["VPR"].stdout
        assert "220 iterations" in stdout
        accepted = int(stdout.split("accepted")[0].split(",")[-1])
        assert accepted > 0

    def test_crafty_searches_deep(self, workload_results):
        stdout = workload_results["CRAFTY"].stdout
        assert "6 games" in stdout
        nodes = int(stdout.split("nodes")[0].split(",")[-1])
        assert nodes > 1000  # depth-5 negamax must expand a real tree

    def test_gap_reaches_whole_graph(self, workload_results):
        stdout = workload_results["GAP"].stdout
        assert "90 nodes" in stdout
        reached = int(stdout.split("reached")[0].split(",")[-1])
        assert reached == 90  # the backbone makes the graph connected

    def test_vortex_transaction_mix(self, workload_results):
        stdout = workload_results["VORTEX"].stdout
        for marker in ("inserts", "hits", "deletes"):
            count = int(stdout.split(marker)[0].split(",")[-1].split(":")[-1])
            assert count > 0, f"no {marker} executed"


class TestTable3Runner:
    def test_rows_and_totals(self):
        rows = run_table3(workloads=SPEC_WORKLOADS[:2])
        assert [r.name for r in rows] == ["BZIP2", "GCC"]
        for row in rows:
            assert row.alerts == 0
            assert row.instructions > 10_000
            assert row.program_bytes > 1_000
            assert row.input_bytes > 0

    def test_registry_lookup(self):
        assert workload_by_name("gcc").name == "GCC"
        with pytest.raises(KeyError):
            workload_by_name("SPICE")
