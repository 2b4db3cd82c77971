"""Configuration ingestion: unit conversions, diagnostics, bundled systems."""

import re
import shutil

import pytest

from conftest import CONFIGS
from sinkplan.config_io import SCHEMAS, ConfigError, config_hash, load_config, \
    load_grid
from sinkplan.model import annual_load, peak_load, validate


class TestTinyConfig:
    def test_loads_and_validates(self, tiny_scenario):
        assert validate(tiny_scenario) == []
        assert len(tiny_scenario.zones) == 1
        assert tiny_scenario.time.n_hours == 24
        assert {c.kind for c in tiny_scenario.clusters} == {
            "vre", "storage", "thermal_uc"}
        assert tiny_scenario.sink is not None
        assert len(tiny_scenario.segments) == 3
        assert len(tiny_scenario.deferrable_loads) == 1

    def test_grid_from_sweep_table(self, tiny_grid):
        assert tiny_grid.capex_values == (200.0, 800.0)
        assert tiny_grid.base_prices == (20.0, 50.0, 80.0)
        assert tiny_grid.finance.wacc == 0.071

    def test_profile_wiring(self, tiny_scenario):
        solar = next(c for c in tiny_scenario.clusters if c.id == "solar")
        assert len(solar.cap_factor) == 24
        assert solar.cap_factor.max() <= 0.85 + 1e-9


@pytest.fixture(scope="module")
def northern():
    scenario, _ = load_config(CONFIGS / "northern")
    return scenario


class TestNorthernConfig:
    def test_peak_load_matches_reference_value(self, northern):
        assert peak_load(northern) == pytest.approx(54_256.0, abs=0.5)

    def test_annual_consumption_within_one_percent(self, northern):
        assert annual_load(northern) == pytest.approx(234e6, rel=0.01)

    def test_fuel_cost_precomputed_per_mwh(self, northern):
        ocgt = next(c for c in northern.clusters if c.id == "ocgt")
        assert ocgt.fuel_cost == pytest.approx(9.90 * 3.89)  # 38.51 $/MWh
        assert ocgt.emissions_rate == pytest.approx(9.90 * 53.06 / 1000.0)

    def test_startup_fuel_folds_into_start_cost(self, northern):
        ocgt = next(c for c in northern.clusters if c.id == "ocgt")
        ccgt = next(c for c in northern.clusters if c.id == "ccgt")
        assert ocgt.start_cost == pytest.approx(13400 + 350 * 3.89)
        assert ccgt.start_cost == pytest.approx(67000 + 1000 * 3.89)

    def test_battery_energy_cost_and_mode(self, northern):
        batt = next(c for c in northern.clusters if c.id == "battery")
        assert northern.storage_sizing_mode == "independent_energy"
        assert batt.energy_inv_cost == pytest.approx(13_922.0)

    def test_policies_grouped(self, northern):
        assert len(northern.policies) == 1
        p = northern.policies[0]
        assert p.kind == "co2_cap_system"
        assert set(p.rates.values()) == {0.005}


class TestDiagnostics:
    def make_broken(self, tmp_path, tiny_config, filename, mutate):
        dst = tmp_path / "broken"
        shutil.copytree(tiny_config, dst)
        path = dst / filename
        path.write_text(mutate(path.read_text()))
        return dst

    def test_negative_load_names_the_cell(self, tmp_path, tiny_config):
        def mutate(text):
            lines = text.splitlines()
            lines[3] = lines[3].replace(lines[3].split(",")[2],
                                        "-5.0")
            return "\n".join(lines)

        broken = self.make_broken(tmp_path, tiny_config, "load.csv", mutate)
        with pytest.raises(ConfigError, match=r"load\.csv line 4.*load_mw"):
            load_config(broken)

    def test_malformed_number_names_the_cell(self, tmp_path, tiny_config):
        def mutate(text):
            return text.replace("9000.0", "nine-thousand", 1)

        broken = self.make_broken(tmp_path, tiny_config, "nse.csv", mutate)
        with pytest.raises(ConfigError, match=r"nse\.csv line 2.*voll"):
            load_config(broken)

    def test_missing_file_is_reported(self, tmp_path, tiny_config):
        dst = tmp_path / "broken"
        shutil.copytree(tiny_config, dst)
        (dst / "resources.csv").unlink()
        with pytest.raises(ConfigError, match="resources.csv"):
            load_config(dst)

    def test_missing_column_is_reported(self, tmp_path, tiny_config):
        def mutate(text):
            return text.replace("inv_cost_usd_per_mw_yr", "inv_cost")

        broken = self.make_broken(tmp_path, tiny_config, "resources.csv",
                                  mutate)
        with pytest.raises(ConfigError, match="inv_cost_usd_per_mw_yr"):
            load_config(broken)

    def test_hour_beyond_horizon_rejected(self, tmp_path, tiny_config):
        def mutate(text):
            return text + "25,Z1,100.0\n"

        broken = self.make_broken(tmp_path, tiny_config, "load.csv", mutate)
        with pytest.raises(ConfigError, match="hour"):
            load_config(broken)

    def test_extra_cell_is_an_error(self, tmp_path, tiny_config):
        """Instead of the cell past the header being dropped."""
        broken = self.make_broken(
            tmp_path, tiny_config, "load.csv",
            lambda text: text.replace("1,Z1,458.579", "1,Z1,458.579,999", 1))
        with pytest.raises(ConfigError, match=re.escape(
                "load.csv line 2: 4 cells, but the header has 3")):
            load_config(broken)

    def test_repeated_header_column_is_an_error(self, tmp_path, tiny_config):
        """Instead of the later column's zeros silently becoming the load."""
        def mutate(text):
            head, *rows = text.splitlines()
            return "\n".join([head + ",load_mw", *(r + ",0" for r in rows)]) + "\n"

        broken = self.make_broken(tmp_path, tiny_config, "load.csv", mutate)
        with pytest.raises(ConfigError, match=re.escape(
                "load.csv line 1, column 'load_mw': repeats an earlier column")):
            load_config(broken)

    @pytest.mark.parametrize("filename", ["load.csv", "cap_factors.csv",
                                          "deferrable_profiles.csv"])
    def test_repeated_hour_is_an_error(self, tmp_path, tiny_config, filename):
        """Instead of the later value replacing the earlier one."""
        lines = (tiny_config / filename).read_text().splitlines()
        hour, key, _ = lines[1].split(",")
        broken = self.make_broken(
            tmp_path, tiny_config, filename,
            lambda text: text.replace(lines[1], f"{lines[1]}\n{hour},{key},1.0",
                                      1))
        where = f"{filename} line 3, column 'hour'"
        with pytest.raises(ConfigError, match=re.escape(
                f"{where}: hour {hour} of {key!r} repeats line 2")):
            load_config(broken)

    def test_validation_failures_surface(self, tmp_path, tiny_config):
        def mutate(text):
            return text.replace("0.3", "1.3")  # ocgt min stable

        broken = self.make_broken(tmp_path, tiny_config, "resources.csv",
                                  mutate)
        with pytest.raises(ConfigError, match="min_stable"):
            load_config(broken)

    @pytest.mark.parametrize("keys, rule", [
        ({"hours_per_sub_period": "-3"},
         "time.hours_per_sub_period: must be >= 2, got -3"),
        ({"sub_periods": "1000000000000000",
          "hours_per_sub_period": "1000000000000000"},
         "time.n_hours: must be <= 8784, got " + str(10**30)),
    ], ids=["negative", "beyond-numpy"])
    def test_horizon_checked_before_hourly_tables_are_sized(
            self, tmp_path, tiny_config, keys, rule):
        """The hourly tables are sized by the horizon, so a bad one ended in
        numpy's error, or an allocation of the whole horizon, instead."""
        def mutate(text):
            for key, value in keys.items():
                text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text,
                              flags=re.M)
            return text

        broken = self.make_broken(tmp_path, tiny_config, "scenario.txt", mutate)
        with pytest.raises(ConfigError, match=re.escape(
                f"configuration fails validation (1 violations):\n  {rule}")):
            load_config(broken)

    def test_unknown_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope")

    @pytest.mark.parametrize("config, filename, line, column, value", [
        ("tiny", "load.csv", 3, "load_mw", "nan"),
        ("tiny", "load.csv", 3, "hour", "inf"),
        ("tiny", "cap_factors.csv", 9, "cap_factor", "nan"),
        ("tiny", "deferrable_profiles.csv", 20, "base_mw", "nan"),
        ("tiny", "nse.csv", 2, "voll_usd_per_mwh", "nan"),
        ("tiny", "resources.csv", 2, "inv_cost_usd_per_mw_yr", "nan"),
        ("tiny", "resources.csv", 4, "min_up_hr", "nan"),
        ("tiny", "deferrable.csv", 2, "max_delay_hr", "inf"),
        ("tiny", "segments.csv", 3, "value_usd_per_mwh", "nan"),
        ("tiny", "segments.csv", 2, "index", "inf"),
        ("trend2z", "lines.csv", 2, "existing_cap_mw", "nan"),
        ("northern", "policies.csv", 2, "value", "nan"),
        ("tiny", "scenario.txt", None, "sink_capex_usd_per_kw", "nan"),
        ("tiny", "scenario.txt", None, "sub_periods", "inf"),
        ("tiny", "sweep.txt", None, "capex_usd_per_kw", "200, nan"),
    ])
    def test_non_finite_value_names_the_cell(self, tmp_path, config, filename,
                                             line, column, value):
        def mutate(text):
            lines = text.splitlines()
            if line is None:  # a key = value manifest
                return "\n".join(f"{column} = {value}"
                                 if l.split("=")[0].strip() == column else l
                                 for l in lines)
            cells = lines[line - 1].split(",")
            cells[lines[0].split(",").index(column)] = value
            lines[line - 1] = ",".join(cells)
            return "\n".join(lines)

        broken = self.make_broken(tmp_path, CONFIGS / config, filename, mutate)
        where = (f"{filename}: key '{column}'" if line is None
                 else f"{filename} line {line}, column '{column}'")
        reason = "must be an integer" if value == "inf" else "nan is not allowed"
        with pytest.raises(ConfigError, match=re.escape(f"{where}: {reason}")):
            load_config(broken)

    @pytest.mark.parametrize("filename, line, column, old, new, reason", [
        ("cap_factors.csv", 2, "resource", "solar", "solr",
         "'solr' has no row in resources.csv"),
        ("nse.csv", 2, "zone", "Z1", "Z9", "'Z9' has no row in load.csv"),
        ("deferrable_profiles.csv", 5, "id", "ev", "evx",
         "'evx' has no row in deferrable.csv"),
        ("resources.csv", 1, "min_stable", "min_stable_fraction",
         "min_stable", "unknown column"),
    ])
    def test_unmatched_name_is_an_error(self, tmp_path, tiny_config,
                                        filename, line, column, old, new,
                                        reason):
        """A key that names nothing, or a header column outside the schema,
        is reported instead of falling back to a default."""
        def mutate(text):
            lines = text.splitlines()
            cells = lines[line - 1].split(",")
            cells[cells.index(old)] = new
            lines[line - 1] = ",".join(cells)
            return "\n".join(lines) + "\n"

        broken = self.make_broken(tmp_path, tiny_config, filename, mutate)
        where = f"{filename} line {line}, column '{column}'"
        with pytest.raises(ConfigError, match=re.escape(f"{where}: {reason}")):
            load_config(broken)

    @pytest.mark.parametrize("filename, key, typo", [
        ("scenario.txt", "hour_weight", "hour_weigth"),
        ("scenario.txt", "sink_wacc", "sink_wac"),
        ("sweep.txt", "elasticity", "elasticty"),
    ])
    def test_misspelled_manifest_key_is_an_error(self, tmp_path, tiny_config,
                                                 filename, key, typo):
        """Instead of leaving the key it meant at its default."""
        lines = (tiny_config / filename).read_text().splitlines()
        line = 1 + [l.split("=")[0].strip() for l in lines].index(key)
        broken = self.make_broken(tmp_path, tiny_config, filename,
                                  lambda text: text.replace(key, typo))
        where = f"{filename} line {line}, key '{typo}'"
        with pytest.raises(ConfigError, match=re.escape(f"{where}: unknown key")):
            load_config(broken)

    def test_repeated_manifest_key_is_an_error(self, tmp_path, tiny_config):
        """Instead of the later value replacing the earlier one."""
        lines = (tiny_config / "scenario.txt").read_text().splitlines()
        first = 1 + [l.split("=")[0].strip() for l in lines].index("hour_weight")
        broken = self.make_broken(
            tmp_path, tiny_config, "scenario.txt",
            lambda text: text.rstrip("\n") + "\nhour_weight = 1.0\n")
        where = f"scenario.txt line {len(lines) + 1}, key 'hour_weight'"
        with pytest.raises(ConfigError, match=re.escape(
                f"{where}: repeats line {first}")):
            load_config(broken)

    def test_blank_and_comment_lines_are_skipped(self, tmp_path, tiny_config,
                                                 tiny_scenario):
        dst = tmp_path / "spaced"
        shutil.copytree(tiny_config, dst)
        for name, old, new in (
                ("scenario.txt", "sub_periods", "\n# one day\nsub_periods"),
                ("load.csv", "\n2,Z1", "\n\n2,Z1")):
            path = dst / name
            assert old in path.read_text()
            path.write_text(path.read_text().replace(old, new, 1))
        scenario, _ = load_config(dst)
        assert scenario.time == tiny_scenario.time
        assert (scenario.zones[0].load.tolist()
                == tiny_scenario.zones[0].load.tolist())

    @pytest.mark.parametrize("filename, old, new, message", [
        ("scenario.txt", "sub_periods = 1", "sub_periods 1",
         "scenario.txt line 2: expected 'key = value'"),
        ("scenario.txt", "hours_per_sub_period = 24\n", "",
         "scenario.txt: missing key 'hours_per_sub_period'"),
        ("load.csv", "1,Z1,458.579", "1,Z1,",
         "load.csv line 2, column 'load_mw': value required"),
        ("resources.csv", ",1.0,,battery", ",hourly,,battery",
         "resources.csv line 3, column 'cap_factor': not a number: 'hourly'"),
        ("deferrable.csv", "ev,Z1,0.9,5", "ev,Z1,0.9,5\nev2,Z1,0.5,3",
         "deferrable.csv line 3, column 'id': no profile rows for 'ev2'"),
    ], ids=["line-without-equals", "missing-key", "required-cell-blank",
            "cap-factor-word", "deferrable-without-profile"])
    def test_refusal_names_its_place(self, tmp_path, tiny_config, filename,
                                     old, new, message):
        def mutate(text):
            assert old in text
            return text.replace(old, new, 1)

        broken = self.make_broken(tmp_path, tiny_config, filename, mutate)
        with pytest.raises(ConfigError) as exc:
            load_config(broken)
        assert str(exc.value) == message

    def test_missing_scenario_txt_is_reported(self, tmp_path, tiny_config):
        dst = tmp_path / "broken"
        shutil.copytree(tiny_config, dst)
        (dst / "scenario.txt").unlink()
        with pytest.raises(ConfigError) as exc:
            load_config(dst)
        assert str(exc.value) == "missing required file scenario.txt"

    def test_unknown_policy_kind_is_an_error(self, tmp_path, tiny_config):
        broken = self.with_policies(tmp_path, tiny_config, "carbon_tax,,Z1,0.5")
        with pytest.raises(ConfigError) as exc:
            load_config(broken)
        assert str(exc.value) == ("policies.csv line 2, column 'kind': "
                                  "unknown policy kind 'carbon_tax'")

    def with_policies(self, tmp_path, tiny_config, *rows):
        dst = tmp_path / "broken"
        shutil.copytree(tiny_config, dst)
        (dst / "policies.csv").write_text(
            "\n".join(("kind,standard_id,zone,value",) + rows) + "\n")
        return dst

    def test_a_standard_id_on_a_cap_is_reported(self, tmp_path, tiny_config):
        """Read as two system caps, these would both be the row co2_sys."""
        broken = self.with_policies(tmp_path, tiny_config,
                                    "co2_cap_system,,Z1,0.5",
                                    "co2_cap_system,x,Z1,0.3")
        with pytest.raises(ConfigError,
                           match=r"policy\[1\]\.standard_id: unused for kind"):
            load_config(broken)

    def test_a_zone_repeated_in_a_policy_is_an_error(self, tmp_path,
                                                     tiny_config):
        broken = self.with_policies(tmp_path, tiny_config,
                                    "co2_cap_zonal,,Z1,0.5",
                                    "co2_cap_zonal,,Z1,0.05")
        where = "policies.csv line 3, column 'zone'"
        with pytest.raises(ConfigError, match=re.escape(
                f"{where}: 'Z1' appears twice in this policy")):
            load_config(broken)

    def test_profile_row_for_a_numeric_cap_factor_is_an_error(
            self, tmp_path, tiny_config):
        """A cap_factors.csv row applies only to a resource whose cap_factor
        is `profile`; one for the battery (cap_factor 1.0) is reported
        instead of ignored."""
        n = len((tiny_config / "cap_factors.csv").read_text().splitlines())
        broken = self.make_broken(tmp_path, tiny_config, "cap_factors.csv",
                                  lambda text: text + "1,battery,0.5\n")
        where = f"cap_factors.csv line {n + 1}, column 'resource'"
        reason = "'battery' has no row in resources.csv with cap_factor 'profile'"
        with pytest.raises(ConfigError, match=re.escape(f"{where}: {reason}")):
            load_config(broken)


class TestGridFile:
    def test_duplicates_rejected(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("capex_usd_per_kw = 200, 200\n"
                     "base_price_usd_per_mwh = 50\n")
        with pytest.raises(ConfigError, match=re.escape(
                "grid.txt: key 'capex_usd_per_kw': 200.0 and 200.0 share the "
                "cell label 'cx200_bp50'")):
            load_grid(p)

    def test_signed_zeros_rejected(self, tmp_path):
        """-0 is read as 0, so it repeats 0."""
        p = tmp_path / "grid.txt"
        p.write_text("capex_usd_per_kw = 0, -0\n"
                     "base_price_usd_per_mwh = 50\n")
        with pytest.raises(ConfigError, match=re.escape(
                "grid.txt: key 'capex_usd_per_kw': 0.0 and 0.0 share the "
                "cell label 'cx0_bp50'")):
            load_grid(p)

    @pytest.mark.parametrize("key", ["capex_usd_per_kw", "base_price_usd_per_mwh"])
    def test_empty_axis_rejected(self, tmp_path, key):
        p = tmp_path / "grid.txt"
        axes = {"capex_usd_per_kw": "200", "base_price_usd_per_mwh": "50", key: " , "}
        p.write_text("".join(f"{k} = {v}\n" for k, v in axes.items()))
        with pytest.raises(ConfigError, match=re.escape(
                f"grid.txt: key {key!r}: must have at least one value")):
            load_grid(p)

    @pytest.mark.parametrize("lines, key, values", [
        (["capex_usd_per_kw = 1000000, 1000001", "base_price_usd_per_mwh = 50"],
         "capex_usd_per_kw", "1000000.0 and 1000001.0 share the cell label 'cx1e+06_bp50'"),
        (["capex_usd_per_kw = 200, 800", "base_price_usd_per_mwh = 20, 50, 50.0000001"],
         "base_price_usd_per_mwh", "50.0 and 50.0000001 share the cell label 'cx200_bp50'"),
    ], ids=["capex", "base_price"])
    def test_values_sharing_a_cell_label_rejected(self, tmp_path, lines, key, values):
        """Two cells of one label would share a results.csv row name and a
        price-duration file."""
        p = tmp_path / "grid.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"grid.txt: key {key!r}: {values}")):
            load_grid(p)

    @pytest.mark.parametrize("lines, key, rule", [
        (["capex_usd_per_kw = -5, 200", "wacc = 1e40"], "capex_usd_per_kw",
         "must be in [0, 1e+30], got -5.0"),
        (["capex_usd_per_kw = 200", "wacc = 1e40"], "wacc",
         "must be in [0, 1e+30], got 1e+40"),
        (["capex_usd_per_kw = 200", "fom_fraction = -0.1"], "fom_fraction",
         "must be in [0, 1e+30], got -0.1"),
        (["capex_usd_per_kw = 200", "life_yr = 0.5"], "life_yr",
         "must be in [1, 1e+30] years, got 0.5"),
    ], ids=["capex", "wacc", "fom_fraction", "life_yr"])
    def test_sink_cost_rules_checked_on_load(self, tmp_path, lines, key, rule):
        """A cell's capex and financing are checked by the rules `validate`
        applies to a scenario's sink, once, before any cell is solved."""
        p = tmp_path / "grid.txt"
        p.write_text("\n".join(["base_price_usd_per_mwh = 50", *lines]) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"grid.txt: key {key!r}: {rule}")):
            load_grid(p)

    @pytest.mark.parametrize("lines, step", [
        (["elasticity = -1e-320"], "inf"),
        (["anchor_price = 1e300", "elasticity = -1e-10"], "inf"),
        (["anchor_price = 5e-324", "elasticity = -1e10"], "0"),
    ], ids=["tiny-elasticity", "huge-anchor_price", "tiny-anchor_price"])
    def test_curve_step_out_of_range_rejected(self, tmp_path, lines, step):
        """An infinite step gave every cell an infinite segment value, which
        failed each cell only after the reference was solved."""
        p = tmp_path / "grid.txt"
        p.write_text("\n".join(["capex_usd_per_kw = 200",
                                "base_price_usd_per_mwh = 50", *lines]) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"grid.txt: the demand curve's price step is {step}, ")):
            load_grid(p)

    def test_curve_top_value_above_big_rejected(self, tmp_path):
        """A finite step can still put the top segment value above
        model.BIG; such a grid loaded, and every cell then failed `validate`
        after the reference was solved."""
        p = tmp_path / "grid.txt"
        p.write_text("capex_usd_per_kw = 200\nbase_price_usd_per_mwh = 50\n"
                     "anchor_price = 1e300\nelasticity = -1e-7\n")
        with pytest.raises(ConfigError, match=re.escape(
                "grid.txt: key 'base_price_usd_per_mwh': the demand curve of "
                "50.0 has a top segment value of 9.5e+306, above 1e+30")):
            load_grid(p)

    def test_missing_axis_key_rejected(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("capex_usd_per_kw = 200\n")
        with pytest.raises(ConfigError) as exc:
            load_grid(p)
        assert str(exc.value) == "grid.txt: missing key 'base_price_usd_per_mwh'"

    def test_missing_file_rejected(self, tmp_path):
        p = tmp_path / "grid.txt"
        with pytest.raises(ConfigError) as exc:
            load_grid(p)
        assert str(exc.value) == f"sweep grid file not found: {p}"

    def test_standalone_grid(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("capex_usd_per_kw = 200, 1400\n"
                     "base_price_usd_per_mwh = -15, 50\n"
                     "elasticity = -0.6\n")
        grid = load_grid(p)
        assert grid.capex_values == (200.0, 1400.0)
        assert grid.base_prices == (-15.0, 50.0)
        assert grid.curve.elasticity == -0.6


def test_config_hash_tracks_content(tmp_path, tiny_config):
    a = config_hash(tiny_config)
    assert a == config_hash(tiny_config)
    dst = tmp_path / "copy"
    shutil.copytree(tiny_config, dst)
    assert config_hash(dst) == a
    (dst / "scenario.txt").write_text(
        (dst / "scenario.txt").read_text() + "# tweak\n")
    assert config_hash(dst) != a


def test_every_schema_column_is_documented_with_its_default():
    """docs/formats.md has a `| column | default |` row for each declared
    column of each table, under the table's own heading."""
    text = (CONFIGS.parent / "docs" / "formats.md").read_text()
    for filename, schema in SCHEMAS.items():
        section = text.split(f"\n### {filename}\n", 1)[1].split("\n### ", 1)[0]
        for column, (_, _, default) in schema.items():
            if default is None:
                shown = "required"
            elif isinstance(default, str):
                shown = f"`{default}`" if default else "blank"
            else:
                shown = f"{default:g}"
            assert f"| `{column}` | {shown} |" in section, (filename, column)
