import pytest

from vty.witnesses import WITNESSES


class TestWitnessSuite:
    def test_the_registry_names_three_witnesses(self):
        assert sorted(WITNESSES) == [
            "dfa_totality_exhaustive",
            "rm_self_loop_diverges",
            "rm_universal_differential",
        ]

    @pytest.mark.parametrize("witness_id", sorted(WITNESSES))
    def test_every_witness_passes(self, witness_id):
        outcome = WITNESSES[witness_id]()
        assert outcome.witness_id == witness_id
        assert outcome.passed
        assert outcome.details

    def test_self_loop_details_show_the_machine(self):
        outcome = WITNESSES["rm_self_loop_diverges"]()
        assert outcome.details["machine"] == "INC 0 0"
        assert set(outcome.details["outcomes"].values()) == {"OUT_OF_FUEL"}

    def test_differential_details_carry_the_sample_count(self):
        outcome = WITNESSES["rm_universal_differential"]()
        assert outcome.details["samples"] == 100
        assert outcome.details["agreements"] == 100
