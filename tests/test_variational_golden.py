"""Golden outputs of the connection and the geodesic integrator.

Each digest is the sha256 of one output: the ``repr`` of the values of
`christoffel` at eight seeded points, ``to_csv()`` and the ``repr`` of the
``energies()`` of a geodesic, or the message and ``partial.to_csv()`` of
a path that stops early.  The metrics cover the sphere, a 3-D diagonal
metric that varies with the point, a 2-D diagonal one whose connection
underflows to zero with either sign, a 3-D non-diagonal one (its
connection goes through the general inverse), and the constant lever
metric of `optimal_policy_path`.  The digests were taken before the RK4 stages and
`christoffel` were rewritten, and must not change: every bit stays, signs
of zeros included.
"""

import hashlib
import math

import numpy as np
import pytest

from grovekit.variational import (
    MetricField,
    VariationalError,
    christoffel,
    dihedral_group,
    integrate_geodesic,
    lever_metric,
    optimal_policy_path,
    sphere_metric,
    word_distance_cost,
)


def _diagonal(p):
    return np.diag([1.5 + math.sin(p[0]) * p[1], 2.0 + p[2] ** 2,
                    3.0 + math.cos(p[0] - p[2])])


def _underflowing(p):
    # 1 / g_00 times the bracket of g_11 is below the least subnormal
    return np.diag([1.5e308 + 1e300 * math.sin(p[1]),
                    2e-8 + 1e-20 * math.sin(3.0 * p[0])])


def _warped(p):
    return np.array(
        [[2 + math.sin(p[0]), 0.3 * p[1], 0.1 * p[2] ** 2],
         [0.3 * p[1], 3 + p[0] ** 2, 0.2 * math.cos(p[2])],
         [0.1 * p[2] ** 2, 0.2 * math.cos(p[2]), 4 + p[1] ** 2]])


def _turning(p):
    # positive-definite for p0 < 0.05, indefinite beyond
    return np.diag([1.0, 0.05 - p[0]])


METRICS = {
    "sphere": sphere_metric(),
    "diagonal-3d": MetricField(3, _diagonal),
    "diagonal-underflow": MetricField(2, _underflowing),
    "warped-3d": MetricField(3, _warped),
}


def _points(name):
    rng = np.random.default_rng(22)
    if name == "sphere":
        return rng.uniform([0.2, -3.0], [2.9, 3.0], (8, 2))
    return rng.uniform(-1.0, 1.0, (8, METRICS[name].dimension))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _path_outputs(metric, path) -> dict[str, str]:
    return {"csv": _sha(path.to_csv()),
            "energies": _sha(repr(path.energies(metric).tolist()))}


PATHS = {
    "sphere": lambda: (METRICS["sphere"], integrate_geodesic(
        METRICS["sphere"], [1.0, 0.5], [0.3, -0.8], 200, 0.01)),
    "sphere-signed-zeros": lambda: (METRICS["sphere"], integrate_geodesic(
        METRICS["sphere"], [1.2, -0.0], [-0.0, 0.7], 50, 0.02)),
    "diagonal-3d": lambda: (METRICS["diagonal-3d"], integrate_geodesic(
        METRICS["diagonal-3d"], [0.1, -0.2, 0.3], [0.4, 0.2, -0.5], 150,
        0.01)),
    "warped-3d": lambda: (METRICS["warped-3d"], integrate_geodesic(
        METRICS["warped-3d"], [0.2, 0.1, -0.3], [-0.3, 0.6, 0.2], 150,
        0.01)),
    "optimal-policy": lambda: (
        lever_metric(word_distance_cost(dihedral_group(4))),
        optimal_policy_path(word_distance_cost(dihedral_group(4)),
                            [0.0, 0.5], 100, 0.02)),
}

FAILURES = {
    "metric-failure": lambda: integrate_geodesic(
        MetricField(2, _turning), [0.0, 0.0], [1.0, 0.0], 100, 0.01),
    "non-finite-step": lambda: integrate_geodesic(
        METRICS["sphere"], [math.pi / 2, 0.0], [0.0, 1.0], 20, 1e308),
}

CHRISTOFFEL_GOLDEN = {
    "diagonal-3d":
        "615a5798234d4033753dc5da95e8658e1a203d52b4a4208d95d31c7122b45223",
    "diagonal-underflow":
        "b6cbfe8718c55e803429917447dfb5b9f81cecbf90545407fb631808483cefb4",
    "sphere":
        "220a19ea80c493a6b3b2f937a0a3f0b714dbf7301465cfa6bb5acc3469a69f30",
    "warped-3d":
        "3a504667d07fbc01180ce018d1a226ae1efdade92d1b334537d7f728623c7275",
}

PATH_GOLDEN = {
    "diagonal-3d": {
        "csv":
            "2a8dbdb52a78741541a86c176619ad1d41493d74113c1d048be267c1a5eae8e1",
        "energies":
            "59de132a791008237437b0ba4adeba7ef7c0285f656929ca3f267c804f7e5741",
    },
    "optimal-policy": {
        "csv":
            "3019ab4e69cc0160495d45e0ea3b7c469456bc65c3ed62c6ffd2e571fdeffe40",
        "energies":
            "d5cd2ca96c6c4cb03c12dc3c96c62d7cbcff4e43aaeb6039270c1e5ab1c9fdf9",
    },
    "sphere": {
        "csv":
            "ac1bcf134648ab1d54b54dfcf9a11de905e7f5ee19c39708abf72ff71455a3b2",
        "energies":
            "ad1cbf39118390cc43002ae37e8ae94c678efe9f4ecd059430e0bf0f32b61dc0",
    },
    "sphere-signed-zeros": {
        "csv":
            "97e3b5f7ab4bfff550d455e6243823db0ec749a3a15d2775a315b54a28f16d96",
        "energies":
            "284aa48e4b43ddab58cc5d18db4ff4220b351619117ea2c70a697e34d769e226",
    },
    "warped-3d": {
        "csv":
            "359aa642f89ab6fb3d76e74596cc8d09312d6129d48e62c90705adffb299f649",
        "energies":
            "e11f30646f535acdc1a430ef780f1f1209a51944f0e45ff259dab41466aa2bff",
    },
}

FAILURE_GOLDEN = {
    "metric-failure": {
        "message":
            "7e92eb415ee67c88278caec7d9ac8aee6764acc5b8ab6f076e084f998f6ff98e",
        "partial":
            "aba0710617ea5f2104d38f7cf8ac46dbb3344242f698d9e836efc96f48b9ef8b",
    },
    "non-finite-step": {
        "message":
            "577800e90cb53bb17ee47403c2e624405345614831b46a32fe04d3e5d63eb697",
        "partial":
            "d8343c40821f36b30a07f49c2c3a876e751554742e533aa9dcabdda26510ac2b",
    },
}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_christoffel_bits_are_unchanged(name):
    values = [christoffel(METRICS[name], p).tolist() for p in _points(name)]
    assert _sha(repr(values)) == CHRISTOFFEL_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(PATHS))
def test_geodesic_bytes_are_unchanged(name):
    assert _path_outputs(*PATHS[name]()) == PATH_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_geodesic_failure_is_unchanged(name):
    with pytest.raises(VariationalError) as err:
        FAILURES[name]()
    got = {"message": _sha(str(err.value)),
           "partial": _sha(err.value.partial.to_csv())}
    assert got == FAILURE_GOLDEN[name]
