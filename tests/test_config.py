import warnings

import numpy as np
import pytest

from cavityrb.config import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from cavityrb.errors import ConfigError

from conftest import RUN_CONFIG_REJECTS

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


@pytest.mark.parametrize("key,value", RUN_CONFIG_REJECTS)
def test_validation_rejects(key, value):
    with pytest.raises(ConfigError) as err:
        RunConfig(**{key: value})
    # the message names the config key, also where a sub-config field
    # carries another name (track_h is the tracking step h)
    assert str(err.value).startswith(f"{key} ")
    assert isinstance(err.value, ValueError)


def test_construction_is_silent_below_recommended_initial_size():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        RunConfig(K=5, tau=2, N_init=4)


def test_sub_configs_carry_the_run_settings():
    cfg = RunConfig(K=4, tau=1, N_train=7, tol=1e-5, N_max=30, track_h=0.2,
                    rho_min=0.7, max_halvings=2, delta_mult=1e-5,
                    residual_form="mass-inverse")
    g = cfg.greedy_config()
    assert (g.K, g.tau, g.tol, g.N_max, g.delta_mult, g.residual_form) == (
        4, 1, 1e-5, 30, 1e-5, "mass-inverse"
    )
    np.testing.assert_array_equal(g.xi_train, np.linspace(0.0, 1.0, 7))
    t = cfg.tracking_config("high-fidelity")
    assert (t.K, t.h, t.system, t.rho_min, t.max_halvings, t.overtrack,
            t.delta_mult) == (4, 0.2, "high-fidelity", 0.7, 2, 1, 1e-5)
    # 0 aborts a low-correlation step without halving, in a run config too
    assert RunConfig(max_halvings=0).tracking_config("high-fidelity").max_halvings == 0


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
