"""Fleet spec parsing.  The per-worker HTTP client is the daemon's
``ServeClient``; its wire tests live in ``tests/serve/test_client.py``."""

import pytest

from repro.fleet import FleetError, FleetTarget, parse_fleet_spec


class TestParseFleetSpec:
    def test_local_with_count(self):
        assert parse_fleet_spec("local:3") == [FleetTarget("local")] * 3

    def test_bare_local_is_one_worker(self):
        assert parse_fleet_spec("local") == [FleetTarget("local")]

    def test_remote_hosts(self):
        assert parse_fleet_spec("box-a:8347,box-b:9000") == [
            FleetTarget("remote", "box-a:8347"),
            FleetTarget("remote", "box-b:9000"),
        ]

    def test_mixture_and_whitespace(self):
        assert parse_fleet_spec(" local:2 , box:8347 ") == [
            FleetTarget("local"),
            FleetTarget("local"),
            FleetTarget("remote", "box:8347"),
        ]

    @pytest.mark.parametrize("spec", [
        "", ",", "local:0", "local:none", "justahost", ":8347",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FleetError):
            parse_fleet_spec(spec)
