import numpy as np
import pytest

from faircluster.config import (
    ConfigError,
    ExperimentConfig,
    SensitiveAttribute,
    apply_overrides,
    config_from_mapping,
    load_config,
)
from faircluster.ingest import ingest

SIX_ROWS = """x,y,sex
0.0,0.0,f
1.0,0.5,m
2.0,1.0,f
3.0,1.5,m
4.0,2.0,f
5.0,2.5,m
"""

SIX_ROWS_TWO_ATTRS = """x,y,sex,married
0.0,0.0,f,yes
1.0,0.5,m,yes
2.0,1.0,f,no
3.0,1.5,m,no
4.0,2.0,f,yes
5.0,2.5,m,no
"""


def base_config(path, **kw):
    data = {
        "dataset_path": str(path),
        "coordinate_columns": ["x", "y"],
        "sensitive_attributes": ["sex"],
        "k_values": [2],
        "p": 2,
        "delta_values": [0.2],
    }
    data.update(kw)
    return config_from_mapping(data)


def test_single_attribute_partition(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS)
    res = ingest(base_config(f))
    inst = res.instance
    assert inst.n == 6 and inst.ell == 2 and inst.delta == 1
    assert res.group_names == ("sex=f", "sex=m")
    assert res.rows_dropped == 0


def test_two_attributes_overlap(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS_TWO_ATTRS)
    res = ingest(base_config(f, sensitive_attributes=["sex", "married"]))
    inst = res.instance
    assert inst.ell == 4 and inst.delta == 2
    assert all(inst.membership[v].sum() == 2 for v in range(inst.n))


def test_non_numeric_row_dropped(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS.replace("2.0,1.0,f", "oops,1.0,f", 1))
    res = ingest(base_config(f))
    assert res.rows_dropped == 1
    assert res.instance.n == 5


def test_nan_row_dropped_infinite_row_rejected(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS.replace("2.0,1.0,f", "nan,1.0,f", 1))
    res = ingest(base_config(f))
    assert res.rows_dropped == 1
    assert res.instance.n == 5
    for bad in ("inf", "-inf"):
        f.write_text(SIX_ROWS.replace("2.0,1.0,f", f"2.0,{bad},f", 1))
        with pytest.raises(ConfigError, match="line 4: infinite coordinate"):
            ingest(base_config(f))


def test_semicolon_delimiter_detected(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS.replace(",", ";"))
    res = ingest(base_config(f))
    assert res.instance.n == 6


def test_missing_column_named(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS)
    with pytest.raises(ConfigError, match="'z'"):
        ingest(base_config(f, coordinate_columns=["x", "z"]))


def test_value_mapping_groups(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS)
    cfg = base_config(f, sensitive_attributes=[
        {"column": "sex", "groups": {"f": "female", "m": "male"}}])
    res = ingest(cfg)
    assert res.group_names == ("sex=female", "sex=male")


def test_mapped_group_with_zero_members(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS.replace(",m\n", ",f\n"))
    cfg = base_config(f, sensitive_attributes=[
        {"column": "sex", "groups": {"f": "female", "m": "male"}}])
    with pytest.raises(ConfigError, match="zero members"):
        ingest(cfg)


def test_unmapped_value_rejected(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS)
    cfg = base_config(f, sensitive_attributes=[
        {"column": "sex", "groups": {"f": "female"}}])
    with pytest.raises(ConfigError, match="no group mapping"):
        ingest(cfg)


def test_subsample_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    f = tmp_path / "d.csv"
    lines = ["x,y,g"]
    for i in range(50):
        lines.append(f"{rng.random()},{rng.random()},{'a' if i % 2 else 'b'}")
    f.write_text("\n".join(lines) + "\n")
    cfg = base_config(f, sensitive_attributes=["g"], max_points=20, seed=9)
    a = ingest(cfg)
    b = ingest(cfg)
    assert a.instance.n == 20
    np.testing.assert_array_equal(a.instance.points, b.instance.points)


def test_standardize_flag(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(SIX_ROWS)
    res = ingest(base_config(f, standardize=True))
    assert abs(res.instance.points.mean(axis=0)).max() < 1e-12
    assert np.allclose(res.instance.points.std(axis=0), 1.0)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="missing required"):
        config_from_mapping({"dataset_path": "x"})
    with pytest.raises(ConfigError, match="delta"):
        config_from_mapping({
            "dataset_path": "x", "coordinate_columns": ["a"],
            "sensitive_attributes": ["s"], "k_values": [2], "p": 1,
            "delta_values": [1.5]})
    with pytest.raises(ConfigError, match="unknown config fields"):
        config_from_mapping({
            "dataset_path": "x", "coordinate_columns": ["a"],
            "sensitive_attributes": ["s"], "k_values": [2], "p": 1,
            "delta_values": [0.1], "bogus": 1})


def test_yaml_roundtrip_and_overrides(tmp_path):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(
        "dataset_path: d.csv\n"
        "coordinate_columns: [x, y]\n"
        "sensitive_attributes:\n"
        "  - sex\n"
        "  - {column: married}\n"
        "k_values: [2, 4]\n"
        "p: inf\n"
        "delta_values: [0.1, vacuous]\n"
        "seed: 3\n"
    )
    cfg = load_config(cfg_file)
    assert cfg.p == float("inf")
    assert cfg.delta_values == (0.1, "vacuous")
    assert cfg.sensitive_attributes == (
        SensitiveAttribute("sex"), SensitiveAttribute("married"))
    out = apply_overrides(cfg, ["seed=11", "k_values=[3]", "p=2"])
    assert out.seed == 11 and out.k_values == (3,) and out.p == 2.0
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(cfg, ["seed"])
