"""Unit tests for the golden-fixture registry (repro.verify.golden)."""

import json

import pytest

from repro.verify.golden import (
    SCHEMA_VERSION,
    GoldenDriftError,
    GoldenSchemaError,
    build_instance,
    check_fixture,
    default_golden_dir,
    load_all_fixtures,
    load_fixture,
    regenerate_fixture,
    save_fixture,
    validate_fixture,
)


def minimal_fixture_dict(**overrides):
    data = {
        "schema_version": SCHEMA_VERSION,
        "name": "unit",
        "description": "synthetic fixture for loader tests",
        "instance": {"kind": "table1"},
        "uncertainty": {
            "kind": "suqr",
            "w1": [-6.0, -2.0],
            "w2": [0.5, 1.0],
            "w3": [0.4, 0.9],
            "convention": "endpoint",
        },
        "solve": {"num_segments": 5, "epsilon": 0.01},
        "expected": {
            "robust_worst_case": {"value": -0.9, "atol": 0.05},
        },
        "provenance": {},
    }
    data.update(overrides)
    return data


class TestSchema:
    def test_minimal_fixture_validates(self):
        fixture = validate_fixture(minimal_fixture_dict())
        assert fixture.name == "unit"
        assert "robust_worst_case" in fixture.expected

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"schema_version": 99}, "schema_version"),
            ({"name": 7}, "name"),
            ({"instance": {"kind": "exotic"}}, "unknown kind"),
            ({"instance": {"kind": "random"}}, "num_targets"),
            ({"uncertainty": {"kind": "qr"}}, "unknown kind"),
            ({"expected": {}}, "at least one"),
            ({"expected": {"mystery": {"value": 1, "atol": 0.1}}}, "unknown key"),
            (
                {"expected": {"robust_worst_case": {"value": 1}}},
                "atol",
            ),
            (
                {"expected": {"robust_worst_case": {"atol": 0.1}}},
                "value",
            ),
            ({"solve": {"epsilon": 0.01}}, "num_segments"),
            (
                {"solve": {"num_segments": 5, "epsilon": 0.01, "session": "fresh"}},
                "session",
            ),
        ],
    )
    def test_malformed_fixture_rejected(self, mutation, match):
        with pytest.raises(GoldenSchemaError, match=match):
            validate_fixture(minimal_fixture_dict(**mutation))

    def test_bad_weight_pair_rejected(self):
        data = minimal_fixture_dict()
        data["uncertainty"]["w1"] = [-6.0]
        with pytest.raises(GoldenSchemaError, match="number pair"):
            validate_fixture(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GoldenSchemaError, match="invalid JSON"):
            load_fixture(path)


class TestRepositoryFixtures:
    """The committed fixtures must load, build, and self-describe."""

    def test_default_dir_has_table1(self):
        fixtures = load_all_fixtures()
        names = [f.name for f in fixtures]
        assert "table1" in names

    def test_table1_fixture_builds_the_canonical_instance(self):
        fixture = next(
            f for f in load_all_fixtures() if f.name == "table1"
        )
        game, uncertainty = build_instance(fixture)
        assert game.num_targets == 2
        assert fixture.path is not None
        # Every expected entry documents its own tolerance.
        for entry in fixture.expected.values():
            assert entry["atol"] > 0

    def test_default_dir_exists(self):
        assert default_golden_dir().is_dir()


class TestCheckFixture:
    def test_matching_measurement_passes(self):
        fixture = validate_fixture(minimal_fixture_dict())
        report = check_fixture(fixture, measured={"robust_worst_case": -0.91})
        assert report.passed
        assert report.instance == "golden:unit"
        assert report.checks[0].name == "golden.robust_worst_case"
        assert report.round_trips()

    def test_drifted_measurement_fails_with_magnitude(self):
        fixture = validate_fixture(minimal_fixture_dict())
        report = check_fixture(fixture, measured={"robust_worst_case": -1.5})
        assert not report.passed
        check = report.failures()[0]
        assert check.measured == pytest.approx(0.6)
        assert check.bound == pytest.approx(0.05)
        assert "DRIFTED" in check.detail

    def test_vector_drift_uses_max_norm(self):
        data = minimal_fixture_dict(
            expected={
                "robust_strategy": {"value": [0.4, 0.6], "atol": 0.01},
            }
        )
        fixture = validate_fixture(data)
        report = check_fixture(
            fixture, measured={"robust_strategy": [0.4, 0.65]}
        )
        assert not report.passed
        assert report.failures()[0].measured == pytest.approx(0.05)


class TestRegeneration:
    def patched(self, monkeypatch, measured):
        import repro.verify.golden as golden_mod

        monkeypatch.setattr(
            golden_mod, "measure_fixture", lambda fixture: dict(measured)
        )

    def test_within_tolerance_updates_provenance(self, monkeypatch):
        self.patched(monkeypatch, {"robust_worst_case": -0.905})
        fixture = validate_fixture(minimal_fixture_dict())
        updated = regenerate_fixture(fixture)
        assert updated.expected["robust_worst_case"]["value"] == -0.905
        assert updated.provenance["regenerate_reason"] is None
        assert updated.provenance["drifted_keys"] == []
        assert updated.provenance["git_sha"]

    def test_unexplained_drift_refused(self, monkeypatch):
        self.patched(monkeypatch, {"robust_worst_case": -2.0})
        fixture = validate_fixture(minimal_fixture_dict())
        with pytest.raises(GoldenDriftError, match="robust_worst_case"):
            regenerate_fixture(fixture)

    def test_explained_drift_recorded(self, monkeypatch):
        self.patched(monkeypatch, {"robust_worst_case": -2.0})
        fixture = validate_fixture(minimal_fixture_dict())
        updated = regenerate_fixture(fixture, reason="recalibrated payoffs")
        assert updated.expected["robust_worst_case"]["value"] == -2.0
        assert updated.provenance["regenerate_reason"] == "recalibrated payoffs"
        assert updated.provenance["drifted_keys"] == ["robust_worst_case"]

    def test_atol_is_preserved_across_regeneration(self, monkeypatch):
        self.patched(monkeypatch, {"robust_worst_case": -0.91})
        fixture = validate_fixture(minimal_fixture_dict())
        updated = regenerate_fixture(fixture)
        assert updated.expected["robust_worst_case"]["atol"] == 0.05


class TestSaveLoad:
    def test_save_load_round_trip(self, tmp_path):
        fixture = validate_fixture(minimal_fixture_dict())
        path = save_fixture(fixture, tmp_path / "unit.json")
        loaded = load_fixture(path)
        assert loaded.to_dict() == fixture.to_dict()
        # File is valid standalone JSON with the schema tag.
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == SCHEMA_VERSION

    def test_save_without_path_requires_one(self):
        fixture = validate_fixture(minimal_fixture_dict())
        with pytest.raises(ValueError, match="no path"):
            save_fixture(fixture)


class TestDriftFixtures:
    """The drift-sequence fixture kind added for the resolve engine."""

    def drift_fixture_dict(self, **overrides):
        data = minimal_fixture_dict(
            drift={"factors": [0.9, 0.81]},
            expected={
                "resolve_worst_case": {"value": -0.9, "atol": 0.05},
            },
        )
        data.update(overrides)
        return data

    def test_drift_fixture_validates(self):
        fixture = validate_fixture(self.drift_fixture_dict())
        assert fixture.drift == {"factors": [0.9, 0.81]}
        assert "resolve_worst_case" in fixture.expected

    def test_resolve_keys_require_drift_object(self):
        data = self.drift_fixture_dict()
        del data["drift"]
        with pytest.raises(GoldenSchemaError, match="require a 'drift'"):
            validate_fixture(data)

    @pytest.mark.parametrize("factors", [[], [0.9, -0.1], [0.9, "x"], "0.9"])
    def test_bad_factors_rejected(self, factors):
        data = self.drift_fixture_dict(drift={"factors": factors})
        with pytest.raises(GoldenSchemaError):
            validate_fixture(data)

    def test_drift_survives_round_trip(self, tmp_path):
        import json as _json

        path = tmp_path / "drift.json"
        path.write_text(_json.dumps(self.drift_fixture_dict()))
        fixture = load_fixture(path)
        assert fixture.drift == {"factors": [0.9, 0.81]}
        assert fixture.to_dict()["drift"] == {"factors": [0.9, 0.81]}

    def test_repo_drift_fixture_measures_and_passes(self):
        fixture = next(
            f for f in load_all_fixtures() if f.name == "resolve_drift50"
        )
        assert fixture.drift["factors"][-1] == pytest.approx(0.59049)
        # Not re-measured here (a T=50 standing solve belongs to the
        # battery); the schema and provenance contract is what this
        # suite owns.
        assert fixture.provenance["resolve_stats"]["resolves"] == 5
        assert fixture.provenance["resolve_stats"]["bracket_reuses"] == 5
