import pytest

from cavityrb.config import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from cavityrb.errors import ConfigError

GOOD = """
# benchmark configuration
schema = 1
mesh_n = 8
family = affine-stretch
K = 4
tau = 1
tol = 1e-7   # estimator target
seed = 42
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.mesh_n == 8
    assert cfg.K == 4
    assert cfg.tol == 1e-7
    assert cfg.seed == 42
    assert cfg.gauge == "tree-cotree"  # default


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError) as err:
        parse_config(GOOD + "\ntolerance = 1e-3\n")
    assert "tolerance" in str(err.value)


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError):
        parse_config(GOOD + "\nmesh_n = 9\n")


def test_missing_schema_is_an_error():
    with pytest.raises(ConfigError):
        parse_config("mesh_n = 4\n")


def test_wrong_schema_version():
    with pytest.raises(ConfigError):
        parse_config("schema = 99\n")


def test_bad_value_type():
    with pytest.raises(ConfigError):
        parse_config("schema = 1\nmesh_n = fast\n")


def test_malformed_line():
    with pytest.raises(ConfigError):
        parse_config("schema = 1\nmesh_n 8\n")


@pytest.mark.parametrize(
    "key,value",
    [
        ("mesh_n", 0),
        ("K", 0),
        ("tol", 0.0),
        ("track_h", 1.5),
        ("rho_min", 0.0),
        ("gauge", "magic"),
        ("family", "square"),
        ("bump_beta", 1.5),
        ("repetitions", 0),
        ("repetitions", 2),
        ("N_max", 10),  # below the initial size ceil(1.5 (5 + 2)) = 11
        ("stretch_a1", float("nan")),
        ("stretch_a1", float("inf")),
        ("bump_beta", float("nan")),
        ("tol", float("nan")),
        ("delta_mult", float("nan")),
        ("null_tol", float("inf")),
    ],
)
def test_validation_rejects(key, value):
    cfg = RunConfig()
    setattr(cfg, key, value)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_auto_initial_size():
    cfg = RunConfig(K=5, tau=2, N_init=0)
    assert cfg.resolved_n_init() == 11
    cfg = RunConfig(K=5, tau=2, N_init=12)
    assert cfg.resolved_n_init() == 12


def test_dict_roundtrip():
    cfg = RunConfig(mesh_n=6, gauge="gram-schmidt", seed=9)
    data = config_to_dict(cfg)
    again = config_from_dict(data)
    assert again == cfg


def test_dict_rejects_unknown():
    with pytest.raises(ConfigError):
        config_from_dict({"schema": 1, "mesh_m": 4})
