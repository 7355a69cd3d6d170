import numpy as np
import pytest

from relu_lyapunov import Architecture
from relu_lyapunov.arch import check_params, layer_views


def test_param_count_small_examples():
    assert Architecture((1, 7, 1)).param_count == 22
    assert Architecture((1, 3, 7, 1)).param_count == 42
    assert Architecture((1, 1)).param_count == 2
    assert Architecture((3, 5)).param_count == 20


def test_depth_and_offsets():
    arch = Architecture((1, 3, 7, 1))
    assert arch.depth == 3
    assert arch.offsets == (0, 6, 34, 42)
    assert arch.layer_sizes(1) == (1, 3)
    assert arch.layer_sizes(3) == (7, 1)


def test_index_examples_shallow():
    arch = Architecture((1, 7, 1))
    assert arch.weight_index(1, 3, 1) == 3
    assert arch.bias_index(1, 7) == 14
    assert arch.weight_index(2, 1, 5) == 19
    assert arch.bias_index(2, 1) == 22


def test_index_examples_deep():
    arch = Architecture((1, 3, 7, 1))
    assert arch.weight_index(3, 1, 7) == 41
    assert arch.bias_index(3, 1) == 42


def test_indexing_is_a_bijection():
    """Every admissible (layer, row, col) / (layer, row) pair must map to a
    distinct coordinate, and together they must cover 1..param_count."""
    rng = np.random.default_rng(0)
    shapes = [(1, 1), (1, 2, 1), (2, 3, 2), (4, 1, 4), (2, 2, 2, 2), (1, 4, 3, 2, 1)]
    for _ in range(20):
        depth = int(rng.integers(1, 5))
        shapes.append(tuple(int(w) for w in rng.integers(1, 5, depth + 1)))
    for widths in shapes:
        arch = Architecture(widths)
        seen = set()
        for k in range(1, arch.depth + 1):
            fan_in, fan_out = arch.layer_sizes(k)
            for i in range(1, fan_out + 1):
                for j in range(1, fan_in + 1):
                    seen.add(arch.weight_index(k, i, j))
                seen.add(arch.bias_index(k, i))
        assert seen == set(range(1, arch.param_count + 1)), widths


def test_slices_agree_with_indices():
    arch = Architecture((2, 3, 2))
    for k in (1, 2):
        fan_in, fan_out = arch.layer_sizes(k)
        ws, bs = arch.weight_slice(k), arch.bias_slice(k)
        assert ws.stop - ws.start == fan_in * fan_out
        assert bs.stop - bs.start == fan_out
        assert ws.start == arch.weight_index(k, 1, 1) - 1
        assert bs.start == arch.bias_index(k, 1) - 1
        assert bs.stop == arch.offsets[k]


def test_index_range_errors():
    arch = Architecture((1, 7, 1))
    with pytest.raises(IndexError):
        arch.weight_index(0, 1, 1)
    with pytest.raises(IndexError):
        arch.weight_index(3, 1, 1)
    with pytest.raises(IndexError):
        arch.weight_index(1, 8, 1)
    with pytest.raises(IndexError):
        arch.weight_index(2, 1, 8)
    with pytest.raises(IndexError):
        arch.bias_index(1, 0)
    with pytest.raises(IndexError):
        arch.bias_index(2, 2)


def test_bad_widths_rejected():
    for widths in [(), (3,), (1, 0, 1), (1, -2), (1.5, 2)]:
        with pytest.raises((ValueError, TypeError)):
            Architecture(widths)


def test_string_round_trip():
    arch = Architecture((1, 3, 7, 1))
    assert arch.to_string() == "1,3,7,1"
    assert Architecture.from_string("1,3,7,1") == arch
    assert Architecture.from_string(" 1, 3,7 ,1 ") == arch
    with pytest.raises(ValueError):
        Architecture.from_string("1,,2")
    with pytest.raises(ValueError):
        Architecture.from_string("abc")


def test_check_params_shape():
    arch = Architecture((1, 7, 1))
    theta = check_params(arch, np.zeros(22))
    assert theta.shape == (22,)
    assert theta.dtype == np.float64
    with pytest.raises(ValueError):
        check_params(arch, np.zeros(21))
    with pytest.raises(ValueError):
        check_params(arch, np.zeros((22, 1)))


def test_layer_views_alias_the_vector():
    arch = Architecture((1, 2, 1))
    theta = np.zeros(arch.param_count)
    views = layer_views(arch, theta)
    assert len(views) == arch.depth
    views[0][0][1, 0] = 3.0
    assert theta[arch.weight_index(1, 2, 1) - 1] == 3.0
    views[1][1][0] = -2.0
    assert theta[arch.bias_index(2, 1) - 1] == -2.0


def test_entrywise_layout_matches_views():
    # weight rows are contiguous: index(k,i,j) walks j fastest, then i
    rng = np.random.default_rng(2)
    arch = Architecture((3, 2, 4))
    theta = rng.normal(size=arch.param_count)
    for k, (w, b) in enumerate(layer_views(arch, theta), start=1):
        fan_in, fan_out = arch.layer_sizes(k)
        for i in range(1, fan_out + 1):
            for j in range(1, fan_in + 1):
                assert theta[arch.weight_index(k, i, j) - 1] == w[i - 1, j - 1]
            assert theta[arch.bias_index(k, i) - 1] == b[i - 1]
