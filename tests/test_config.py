import pytest

from bmland.config import load_config, parse_config_text, require
from bmland.errors import ConfigParseError, ValidationError


def test_parse_json_object():
    cfg = parse_config_text('{"n_starts": 100, "dist": "ball"}')
    assert cfg == {"n_starts": 100, "dist": "ball"}


def test_parse_key_value_lines():
    text = """
    # census settings
    n_starts = 100
    dist = "ball"
    gamma_grid = [0.1, 0.2]
    nested = {"count": 10}
    flag = true
    """
    cfg = parse_config_text(text)
    assert cfg == {
        "n_starts": 100,
        "dist": "ball",
        "gamma_grid": [0.1, 0.2],
        "nested": {"count": 10},
        "flag": True,
    }


def test_parse_errors_name_location():
    with pytest.raises(ConfigParseError, match="line 1"):
        parse_config_text("not an assignment")
    with pytest.raises(ConfigParseError, match="'n_starts'"):
        parse_config_text("n_starts = not-json")
    with pytest.raises(ConfigParseError, match="JSON"):
        parse_config_text("{broken json")


def test_load_config_missing_file():
    with pytest.raises(ConfigParseError, match="no/such/file"):
        load_config("no/such/file")


def test_require_types_and_defaults():
    cfg = {"n": 6, "rate": 0.5, "name": "x", "items": [1], "sub": {}}
    assert require(cfg, "n", int) == 6
    assert require(cfg, "rate", float) == 0.5
    assert require(cfg, "name", str) == "x"
    assert require(cfg, "items", list) == [1]
    assert require(cfg, "sub", dict) == {}
    assert require(cfg, "absent", int, default=7) == 7
    assert require(cfg, "absent", str, default=None) is None


def test_require_failures_name_field():
    with pytest.raises(ValidationError, match="'missing'"):
        require({}, "missing", int)
    with pytest.raises(ValidationError, match="'n'"):
        require({"n": 1.5}, "n", int)
    with pytest.raises(ValidationError, match="'n'"):
        require({"n": True}, "n", int)
    with pytest.raises(ValidationError, match="'name'"):
        require({"name": 4}, "name", str)
