"""The op/error registries as single source of truth: invariants,
generated-doc drift, and wire round-trips for the CDC/ETL codes."""

import pytest

from repro.api import docgen, ops, protocol
from repro.errors import (
    _CODE_REGISTRY,
    ImportAbortedError,
    ReproError,
    ResumeExpiredError,
    SubscriptionLaggedError,
)


class TestOpRegistry:
    def test_codes_are_dense_append_only_and_unique(self):
        # live and retired codes together fill 0..N: nothing skipped,
        # nothing handed out twice
        codes = [spec.code for spec in ops.OPS]
        assert sorted(codes + list(ops.RETIRED_CODES)) == \
            list(range(len(ops.OPS) + len(ops.RETIRED_CODES)))
        assert len({spec.name for spec in ops.OPS}) == len(ops.OPS)

    def test_released_codes_never_move(self):
        """Removing ops 12-14 renumbered nothing: the map below only
        ever grows."""
        assert ops.OP_CODES == {
            "hello": 0, "open": 1, "submit": 2, "submit_xquery": 3,
            "flush": 4, "flush_all": 5, "discard": 6, "text": 7,
            "stats": 8, "docs": 9, "snapshot": 10, "query": 11,
            "promote": 15, "subscribe": 16, "unsubscribe": 17,
            "bulk-import": 18, "export": 19, "explain": 20,
            "metrics": 21}
        assert ops.RETIRED_CODES == {12, 13, 14}

    @pytest.mark.parametrize("code", sorted(ops.RETIRED_CODES))
    def test_a_retired_code_cannot_be_reassigned(self, code):
        reuse = ops.OpSpec("follow", code, "subscribe", result="x")
        registry = sorted(ops.OPS + (reuse,),
                          key=lambda spec: spec.code)
        with pytest.raises(ValueError, match="retired"):
            ops._check_registry(registry)

    def test_protocol_op_codes_come_from_the_registry(self):
        assert protocol.OP_CODES == ops.OP_CODES
        assert protocol.OP_NAMES == {code: name for name, code
                                     in ops.OP_CODES.items()}

    def test_cdc_ops_are_registered(self):
        assert ops.OP_CODES["subscribe"] == 16
        assert ops.OP_CODES["unsubscribe"] == 17
        assert ops.OP_CODES["bulk-import"] == 18
        assert ops.OP_CODES["export"] == 19

    def test_poll_ops_ride_the_follower_executor(self):
        # exactly the long-polling ops; a new parked op must opt in here
        assert ops.POLL_OPS == {"subscribe"}

    def test_dispatch_table_covers_every_served_op(self):
        from repro.api.server import StoreServer

        table = ops.dispatch_table()
        assert set(table) == {spec.name for spec in ops.OPS
                              if spec.method is not None}
        assert "hello" not in table      # handled by negotiation
        assert StoreServer.DISPATCH == table

    def test_every_op_documents_its_result(self):
        for spec in ops.OPS:
            assert spec.result, spec.name


class TestErrorRegistry:
    def test_every_code_carries_generated_doc_text(self):
        for code, klass in _CODE_REGISTRY.items():
            assert getattr(klass, "wire_doc", ""), code

    def test_cdc_codes_are_registered(self):
        assert _CODE_REGISTRY["subscription-lagged"] \
            is SubscriptionLaggedError
        assert _CODE_REGISTRY["resume-expired"] is ResumeExpiredError
        assert _CODE_REGISTRY["import-aborted"] is ImportAbortedError

    @pytest.mark.parametrize("error,details", [
        (SubscriptionLaggedError(17, 42), {"first_seq": 42}),
        (ResumeExpiredError("old", "new"),
         {"token_stream": "old", "stream": "new"}),
        (ImportAbortedError(7, 3, 2), {"loaded": 7, "rejected": 3}),
    ])
    def test_cdc_errors_round_trip_with_details(self, error, details):
        payload = error.to_dict()
        assert payload["details"] == details
        rebuilt = ReproError.from_dict(payload)
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)
        for attr, value in details.items():
            assert getattr(rebuilt, attr) == value

    def test_every_registry_code_round_trips_error_response(self):
        """``error_response`` → ``parse_response`` must reconstruct the
        exact class for every code the registry can emit."""
        for code, klass in _CODE_REGISTRY.items():
            payload = {"code": code, "message": "m", "details": {}}
            response = {"id": 1, "ok": False, "error": payload}
            with pytest.raises(klass) as info:
                protocol.parse_response(response)
            assert type(info.value) is klass, code


class TestGeneratedDocs:
    def test_readme_is_in_sync_with_the_registries(self):
        with open(docgen.README, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert docgen.apply(text) == text, \
            "api/README.md drifted — run `python -m repro.api.docgen`"

    def test_rendered_tables_cover_the_registries(self):
        op_table = docgen.render_op_codes()
        for spec in ops.OPS:
            assert "`{}`".format(spec.name) in op_table
        error_table = docgen.render_error_codes()
        for code in _CODE_REGISTRY:
            assert "`{}`".format(code) in error_table

    def test_missing_markers_fail_loudly(self):
        with pytest.raises(ValueError):
            docgen.apply("a README with no markers")

    def test_check_mode_detects_drift(self, tmp_path):
        path = tmp_path / "README.md"
        regions = "\n".join(
            "<!-- BEGIN GENERATED: {0} -->\nstale\n"
            "<!-- END GENERATED: {0} -->".format(name)
            for name in docgen.REGIONS)
        path.write_text(regions, encoding="utf-8")
        assert docgen.main(["--check", "--path", str(path)]) == 1
        assert docgen.main(["--path", str(path)]) == 0
        assert docgen.main(["--check", "--path", str(path)]) == 0
