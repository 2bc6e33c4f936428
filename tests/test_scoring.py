"""Tests for the provider scorecards and the selection guide."""

import pytest

from repro.core.scoring import build_selection_guide, score_provider


@pytest.fixture(scope="module")
def study():
    from repro.api import run_full_study
    from repro.config import StudyConfig

    providers = ["Seed4.me", "Mullvad", "Freedome VPN", "AceVPN"]
    return run_full_study(StudyConfig(providers=providers))


class TestScorecards:
    def test_clean_provider_scores_high(self, study):
        card = score_provider(study.providers["Mullvad"])
        assert card.score >= 90
        assert card.grade == "A"
        assert card.deductions == []

    def test_injector_penalised(self, study):
        card = score_provider(study.providers["Seed4.me"])
        assert card.score < 50
        reasons = [reason for reason, _ in card.deductions]
        assert any("injects content" in r for r in reasons)
        assert any("tunnel fails" in r for r in reasons)
        assert any("IPv6" in r for r in reasons)

    def test_proxy_penalised(self, study):
        card = score_provider(study.providers["Freedome VPN"])
        reasons = [reason for reason, _ in card.deductions]
        assert any("proxies" in r for r in reasons)
        assert any("DNS" in r for r in reasons)

    def test_openvpn_client_caveat(self, study):
        card = score_provider(study.providers["AceVPN"])
        assert any("untested" in caveat for caveat in card.caveats)

    def test_webrtc_is_caveat_not_deduction(self, study):
        card = score_provider(study.providers["Mullvad"])
        assert any("WebRTC" in caveat for caveat in card.caveats)
        assert all("WebRTC" not in reason for reason, _ in card.deductions)

    def test_score_floor_zero(self, study):
        report = study.providers["Seed4.me"]
        card = score_provider(report)
        assert 0 <= card.score <= 100

    def test_describe_readable(self, study):
        text = score_provider(study.providers["Seed4.me"]).describe()
        assert "Seed4.me" in text
        assert "grade" in text


class TestSelectionGuide:
    def test_ranking_order(self, study):
        guide = build_selection_guide(study)
        ranked = guide.ranked()
        scores = [card.score for card in ranked]
        assert scores == sorted(scores, reverse=True)
        assert ranked[0].provider == "Mullvad"
        assert ranked[-1].provider == "Seed4.me"

    def test_score_lookup(self, study):
        guide = build_selection_guide(study)
        assert guide.score_of("Mullvad") >= 90
        assert guide.score_of("NoSuchVPN") is None

    def test_render_table(self, study):
        guide = build_selection_guide(study)
        text = guide.render()
        assert "vpnselection.guide" in text
        assert "Mullvad" in text
        assert "Grade" in text

    def test_safest_and_worst(self, study):
        guide = build_selection_guide(study)
        assert guide.safest(1)[0].provider == "Mullvad"
        assert guide.worst(1)[0].provider == "Seed4.me"
