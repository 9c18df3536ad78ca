"""Fixtures shared by the test modules."""

import pytest

_RUNNERS = {
    "strong-rate": "run_strong_rate",
    "clt": "run_clt",
    "heat-oracle": "run_heat_oracle",
    "mdp-tail": "run_mdp_tail",
}


@pytest.fixture
def written(monkeypatch, tmp_path):
    """``written(kind, report)``: the text of ``report.json`` and ``report.csv``
    that ``sgbh experiment <kind>`` writes when its runner returns ``report``."""
    import sgbh.cli as cli

    def write(kind, report):
        monkeypatch.setattr(cli, _RUNNERS[kind], lambda *args, **kwargs: report)
        out = tmp_path / kind
        cli.main(["experiment", kind, "--out", str(out), "--workers", "1"])
        return (out / "report.json").read_text(), (out / "report.csv").read_text()

    return write
