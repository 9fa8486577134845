"""Graph auditor tests: the mis-wired HybridGNN variant must be flagged
with the offending parameter names; the stock model must audit clean."""

from __future__ import annotations

import pytest

from repro.check import (
    build_miswired_report,
    build_stock_report,
    run_self_test,
)


@pytest.fixture(scope="module")
def reports():
    ok, messages, reports = run_self_test(seed=0)
    assert ok, messages
    return reports


class TestStockModel:
    def test_strict_clean(self, reports):
        stock = reports["stock"]
        assert stock.passed(strict=True)
        assert stock.errors() == []
        assert stock.warnings() == []

    def test_exempted_params_downgraded_to_info(self, reports):
        # self_projection is unreachable by design (fallback path); the
        # exemption must keep it visible as info, not silently drop it.
        infos = [
            f for f in reports["stock"].findings
            if f.code == "C005" and f.severity == "info"
        ]
        assert any(f.param.startswith("self_projection.") for f in infos)

    def test_graph_summary_populated(self, reports):
        stock = reports["stock"]
        assert stock.num_ops > 0
        assert stock.num_parameters > 0
        assert stock.parameter_bytes > 0
        assert stock.activation_bytes > 0
        assert stock.top_activations


class TestMiswiredModel:
    def test_orphan_parameter_named(self, reports):
        unreachable = {
            f.param
            for f in reports["miswired"].findings
            if f.code == "C005" and f.severity == "warning"
        }
        assert "orphan_bias" in unreachable

    def test_detached_relations_parameters_named(self, reports):
        unreachable = {
            f.param
            for f in reports["miswired"].findings
            if f.code == "C005" and f.severity == "warning"
        }
        assert any(name.startswith("flows.") for name in unreachable)
        assert any(
            name.startswith("metapath_attention.") for name in unreachable
        )

    def test_batch_stretch_broadcast_flagged(self, reports):
        broadcasts = [
            f for f in reports["miswired"].findings if f.code == "C003"
        ]
        assert broadcasts
        assert any("B" in f.message for f in broadcasts)

    def test_dead_subgraph_flagged(self, reports):
        dead = [f for f in reports["miswired"].findings if f.code == "C006"]
        assert dead

    def test_no_shape_errors(self, reports):
        # The seeded defects are wiring-level; shapes still check, so the
        # report must fail strict on warnings alone, without C001/C002.
        miswired = reports["miswired"]
        assert miswired.errors() == []
        assert miswired.passed(strict=False)
        assert not miswired.passed(strict=True)


class TestReportSerialization:
    def test_to_dict_schema(self):
        from repro.check.report import CHECK_SCHEMA_VERSION

        report = build_stock_report(seed=0)
        payload = report.to_dict()
        assert payload["schema_version"] == CHECK_SCHEMA_VERSION
        assert payload["model"] == "HybridGNN"
        for key in ("graph", "memory", "findings"):
            assert key in payload

    def test_findings_sorted_severity_first(self):
        report = build_miswired_report(seed=0)
        ordered = report.sorted_findings()
        ranks = {"error": 0, "warning": 1, "info": 2}
        observed = [ranks[f.severity] for f in ordered]
        assert observed == sorted(observed)

    def test_format_text_has_verdict(self):
        from repro.check.report import format_text

        stock = build_stock_report(seed=0)
        text = format_text(stock, strict=True)
        assert "PASS" in text
        miswired = build_miswired_report(seed=0)
        text = format_text(miswired, strict=True)
        assert "FAIL" in text


class TestNodeSymbolGuard:
    """N is symbolised by value, so it must not alias an architectural dim."""

    @staticmethod
    def seven_node_graph():
        # 7 nodes = the self-test config's stacked combine width 2*3+1.
        from repro.graph.builder import GraphBuilder
        from repro.graph.schema import GraphSchema

        builder = GraphBuilder(GraphSchema(["user", "item"], ["view", "buy"]))
        builder.add_nodes("user", 3)
        builder.add_nodes("item", 4)
        for u, v in [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6)]:
            builder.add_edge(u, v, "view")
        for u, v in [(0, 3), (1, 4), (2, 5), (0, 6)]:
            builder.add_edge(u, v, "buy")
        return builder.build()

    def test_colliding_node_count_raises_naming_the_parameter(self):
        from repro.check.selftest import _audit
        from repro.core.model import HybridGNN
        from repro.errors import CheckError

        with pytest.raises(CheckError, match=r"num_nodes=7") as excinfo:
            _audit(HybridGNN, "HybridGNN", 0, graph=self.seven_node_graph())
        assert "combine.weight (2, 7, 3) axis 1" in str(excinfo.value)

    def test_node_tables_alone_render_as_n(self, reports):
        rendered = " ".join(
            f.message for f in reports["miswired"].findings
        )
        assert "(N, 3)" in rendered            # features.weight
        assert "(2, N, 3)" not in rendered     # combine weights stay concrete

    def test_node_symbol_rules(self):
        import numpy as np

        from repro.check.runner import node_symbol
        from repro.errors import CheckError
        from repro.nn.module import Parameter

        table = ("table", Parameter(np.zeros((5, 3))))
        assert node_symbol(5, [table], ["table"]) == {5: "N"}
        # The same shape is a collision when it is not a declared table.
        with pytest.raises(CheckError, match="table"):
            node_symbol(5, [table], [])
        width = ("proj.weight", Parameter(np.zeros((3, 5))))
        with pytest.raises(CheckError, match=r"proj\.weight \(3, 5\) axis 1"):
            node_symbol(5, [table, width], ["table"])
