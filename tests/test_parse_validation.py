"""Edge-case coverage for TransferSpec.parse and FlowPattern.parse.

Malformed northbound arguments must raise the *typed* errors from
:mod:`repro.core.errors` — :class:`SpecError` and :class:`PatternError`, both
of which derive from :class:`ValidationError` (and, for backward
compatibility, from :class:`ValueError`).
"""

import pytest

from repro.core import FlowPattern, TransferGuarantee, TransferSpec
from repro.core.errors import OpenMBError, PatternError, SpecError, ValidationError


class TestTransferSpecParse:
    def test_bad_guarantee_string_raises_spec_error(self):
        with pytest.raises(SpecError) as excinfo:
            TransferSpec.parse("exactly_once")
        assert "exactly_once" in str(excinfo.value)
        assert "order_preserving" in str(excinfo.value)  # names the valid values

    def test_a_mapping_raises_spec_error(self):
        with pytest.raises(SpecError):
            TransferSpec.parse({"guarantee": "loss_free", "batch_size": 8})

    def test_unparseable_object_raises_spec_error(self):
        with pytest.raises(SpecError):
            TransferSpec.parse(3.14)

    def test_spec_errors_are_value_errors_and_openmb_errors(self):
        with pytest.raises(ValueError):
            TransferSpec.parse("bogus")
        with pytest.raises(ValidationError):
            TransferSpec.parse("bogus")
        with pytest.raises(OpenMBError):
            TransferSpec.parse("bogus")

    def test_valid_forms_still_parse(self):
        assert TransferSpec.parse(None) == TransferSpec.default()
        assert TransferSpec.parse("order_preserving").guarantee is TransferGuarantee.ORDER_PRESERVING
        assert TransferSpec.parse(TransferGuarantee.NO_GUARANTEE).guarantee is TransferGuarantee.NO_GUARANTEE
        spec = TransferSpec(batch_size=8, parallelism=2)
        assert TransferSpec.parse(spec) is spec


class TestFlowPatternParse:
    def test_unknown_field_raises_pattern_error(self):
        with pytest.raises(PatternError) as excinfo:
            FlowPattern.parse({"nw_source": "10.0.0.0/8"})
        assert "nw_source" in str(excinfo.value)
        assert "nw_src" in str(excinfo.value)  # names the valid fields

    def test_unknown_field_in_string_form_raises_pattern_error(self):
        with pytest.raises(PatternError):
            FlowPattern.parse(["port=80"])

    def test_non_integer_port_raises_pattern_error(self):
        with pytest.raises(PatternError):
            FlowPattern.parse({"tp_dst": "http"})
        with pytest.raises(PatternError):
            FlowPattern.parse("nw_proto=tcp")

    def test_malformed_address_raises_pattern_error(self):
        with pytest.raises(PatternError):
            FlowPattern.parse({"nw_src": "10.0.0.0.0/8"})
        with pytest.raises(PatternError):
            FlowPattern.parse({"nw_dst": "10.0.0.0/64"})

    def test_pattern_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            FlowPattern.parse({"bogus": 1})
        with pytest.raises(ValidationError):
            FlowPattern.parse({"bogus": 1})

    def test_empty_pattern_forms_mean_wildcard(self):
        for empty in (None, [], "", {}):
            pattern = FlowPattern.parse(empty)
            assert pattern.is_wildcard

    def test_wildcard_values_are_skipped(self):
        pattern = FlowPattern.parse({"nw_src": "*", "tp_dst": 80})
        assert pattern.as_dict() == {"tp_dst": 80}
