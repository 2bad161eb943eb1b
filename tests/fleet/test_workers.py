"""Fleet spec parsing.  The per-worker HTTP client is the daemon's
``ServeClient``; its wire tests live in ``tests/serve/test_client.py``."""

import pytest

from repro.fleet import FleetError, parse_fleet_spec


class TestParseFleetSpec:
    def test_remote_hosts(self):
        assert parse_fleet_spec("box-a:8347,box-b:9000") == [
            "box-a:8347", "box-b:9000"]

    def test_mixture_and_whitespace(self):
        """Host names and addresses mix; blanks and empty entries go."""
        assert parse_fleet_spec(" box:8347 , ,10.0.0.6:8348 ") == [
            "box:8347", "10.0.0.6:8348"]

    @pytest.mark.parametrize("spec", [
        "", ",", "local:0", "local:none", "justahost", ":8347", "box:port",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FleetError):
            parse_fleet_spec(spec)

    @pytest.mark.parametrize("spec", [
        "local", "local:2", "box:8347,local:2",
    ])
    def test_local_is_refused_toward_the_pool(self, spec):
        with pytest.raises(FleetError, match=r"^--fleet takes host:port "
                           r"daemons; on one host use --processes N$"):
            parse_fleet_spec(spec)
