"""Golden outputs of the information pipeline.

Each digest is the sha256 of one output of a distribution: the text of
``dumps()``, the ``repr`` of `fisher_information` on every axis (an
`InfoError` counts as its message), the lines of `cramer_rao_report`, and
the ``repr`` of `marginal_moments` on every axis.  The grids cover the
bench's nested 256 x 4096 grid at two scales, the command line's
128 x 2048 grid, a depth-1 ``tau`` expression, the map-substitution form,
a two-point ``sigma``, 1-D and 2-D `from_function` grids and a grid with
``-0.0`` cells.  `DENSITY_GOLDEN` pins `information_density` at three
points.  The digests were taken before the grid pipeline was rewritten to
hold fewer grid arrays, and must not change: every output byte stays.
"""

import hashlib
import math

import numpy as np
import pytest

from grovekit.expr import parse
from grovekit.infotheory import (
    GridDistribution,
    InfoError,
    InfoTensorBinding,
    MetricBinding,
    build_nested_distribution,
    cramer_rao_report,
    fisher_information,
    grid,
    information_density,
    location_family,
    smoothed_delta,
)


def _nested(expr, binding, spec, eps):
    return lambda: build_nested_distribution(parse(expr), binding, spec, eps)


def _bench_grid(scale):
    # the bench's numerics fisher job: 4096 samples, 256 of them in m
    half = 6 * scale
    return _nested("sig(m1)", MetricBinding(sigma=lambda m: m),
                   grid(("m", -0.5, 0.5, 256),
                        ("a", -half - 0.5, half + 0.5, 4096)), scale)


def _cli_grid(scale, samples, span):
    # `grovekit info`: samples along a, samples // 16 along m
    return lambda: location_family(scale, span, samples)


def _with_negative_zeros():
    values = np.arange(96, dtype=float).reshape(8, 12) % 7
    values[values == 0] = -0.0
    return GridDistribution(grid(("x", 0.0, 1.0, 8), ("y", -2.0, 2.0, 12)),
                            values, 0.25)


CASES = {
    "bench-nested-0.75": _bench_grid(0.75),
    "bench-nested-1.6": _bench_grid(1.6),
    "cli-128x2048": _cli_grid(0.8, 2048, 6.0),
    "depth-1-tau": _nested(
        "sig tau(m1)",
        MetricBinding(sigma=lambda m: m, tau=lambda t: 0.5 * t + 0.1),
        grid(("m", -1.0, 1.0, 16), ("b", -1.8, 1.8, 48),
             ("a", -1.0, 3.0, 96)), 0.12),
    "phi-map": _nested(
        "sig(phi)", MetricBinding(sigma=lambda m: m, phi=lambda m: m ** 2),
        grid(("m", -1.0, 1.0, 32), ("a", -1.5, 1.5, 64)), 0.2),
    "two-point-sigma": _nested(
        "sig(m1, m2)", MetricBinding(sigma=lambda x, y: x - 0.5 * y),
        grid(("m1", -1.0, 1.0, 12), ("m2", -0.5, 1.5, 10),
             ("a", -2.0, 2.0, 40)), 0.3),
    "from-function-1d": lambda: GridDistribution.from_function(
        grid(("a", -4.0, 4.0, 200)),
        lambda a: (smoothed_delta(a, 0.3, 0.5)
                   + 0.2 * smoothed_delta(a, -1.0, 0.2)), 0.5),
    "from-function-2d": lambda: GridDistribution.from_function(
        grid(("x", -2.0, 2.0, 40), ("y", -3.0, 1.0, 24)),
        lambda x, y: (np.exp(-0.5 * x * x - (y + 1.0) ** 2)
                      * (1.0 + 0.5 * np.sin(x * y))), 0.7),
    "negative-zero": _with_negative_zeros,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _or_error(fn):
    try:
        return fn()
    except InfoError as exc:
        return f"InfoError: {exc}"


def outputs(dist) -> dict[str, str]:
    axes = range(len(dist.grid.axes))
    return {
        "dumps": _sha(dist.dumps()),
        "fisher": _sha(repr([_or_error(lambda: fisher_information(dist, i))
                             for i in axes])),
        "cramer_rao": _sha(repr(_or_error(
            lambda: cramer_rao_report(dist).lines()))),
        "moments": _sha(repr([dist.marginal_moments(i) for i in axes])),
    }


GOLDEN = {
    "bench-nested-0.75": {
        "dumps":
            "fbbf78d486e3678c082fdf0c89c01e84159de093297d4591f72fbf72d332dc2e",
        "fisher":
            "3c8887f1d23d0018729ac71cb856eeee510aa37a812a6a94ac35e6e93b71325d",
        "cramer_rao":
            "61870c3d66ef6779831866cc757ecc89a675818c9f6de935cb2173c7dc098844",
        "moments":
            "a1f6fc8522121b042e02a0beacc0214a61936c2ad4050f2004e69d0830dcc9fb",
    },
    "bench-nested-1.6": {
        "dumps":
            "f10a2b0ebe2fbd52fe079386ed5277d946b2406d1a91d4344e8074bab06289be",
        "fisher":
            "49f05a1624aa36a7a4556dbd24b7714c36b32f2a993dbeca7bff58e7de38b114",
        "cramer_rao":
            "12b792f203c1ac23f938b8c453ab186a0b63daab4537df25db080af82c46f296",
        "moments":
            "2201e3baf3b1a781a102d29bbb287c50f3377d1feb8f0f143db4a086fa59aca9",
    },
    "cli-128x2048": {
        "dumps":
            "fa15283e1cf954ebf2b019e3a98fb070a8395ae52d3af712c954bbb8daf83172",
        "fisher":
            "041d518d6db941e2aab28f1b909f5976c9c683bc70efeec93db3f37abaccb7c4",
        "cramer_rao":
            "0bb4e3981cd734841b97d8c0c605d15527389c2b316c518776346325bd963e4d",
        "moments":
            "2bbe6440f96ce1f3d46fed0fd809f7a031c2fe5cebe0f014f3db6d34f2577cf0",
    },
    "depth-1-tau": {
        "dumps":
            "c67eca5ed1c0ae8036c272669849d73fff12375b3c1fd2c356812fb10ebe810f",
        "fisher":
            "b5e592c1114e36ac336221cdb6c20044c55f5e98675b6a28b7c4d07cfaea4801",
        "cramer_rao":
            "df2dfb8029f72b293c0bb41102f60ccda7088eed98ab5cdbfd90100e59ecec41",
        "moments":
            "098c6b1cb4fa3ad7420084a9f695db6b8bd3bea1f76122b9f8191b63e6116dc5",
    },
    "from-function-1d": {
        "dumps":
            "98edb38803509907d18c606d68914371f0b51784e126167e1883bb821afd8732",
        "fisher":
            "77e62f7d457e1199c67f94978abbef60af714171356506411fe5c6427f4d3a94",
        "cramer_rao":
            "76632ede1d1e8b385c4c86e012b036e862eefe1b6b482f9e92eca9180b71a23c",
        "moments":
            "31d10f13436ad0415228b8c57ccdd0c67404e25e011c624431e89e7109cabe8f",
    },
    "from-function-2d": {
        "dumps":
            "7d94ed15d2de88a91c8094a80e7ff768f80e463e50ce60f62ff8e912ecdd1861",
        "fisher":
            "50737c9280c6334a6acb380ee9299536ab758a4d3492511ff7ec4cf3f36d560c",
        "cramer_rao":
            "53477d264e78723b84814ba6f2a68af29cdfa6f27dccc8d2d0dd6ecf4ba4adca",
        "moments":
            "ab4b96e144e25300e0ea5017b3aea8e8b55ae266b12daf89b19998b291c70efb",
    },
    "negative-zero": {
        "dumps":
            "8cc9a2455c5b6e008468857d7549e8ff2bc1774db2eab6c3324a221848ab3a0f",
        "fisher":
            "af7707c54d2200bbd28433b5f9ba012a465358efd600bef546f7e1172ac0242a",
        "cramer_rao":
            "4e0b1bb532c831acaec59d819918eaac0120f3123889c6a4f847641306a01b98",
        "moments":
            "fad6f303fe4d017814ff526eeb993b156ba35a838c52bcf58c930777b30615fe",
    },
    "phi-map": {
        "dumps":
            "27428113138de85c9877fbdd36626137a8d622a20a4e94d94fec242d9a324ae2",
        "fisher":
            "6042fe7257160c7760408049dab9b39d20c54bd2bd1f35a59cbaee3f621e1ca0",
        "cramer_rao":
            "ae729bf8648a3e5db0c16a899beafad382a668d72ac2486fd0e04fd6e07ebb27",
        "moments":
            "6fbda1eb8408259642df377f763d1b8f5cb622d4c8c904249c6a20f96c9cad68",
    },
    "two-point-sigma": {
        "dumps":
            "03e8daaeaef30f2049b2b141463952606cdbfa73c00eec0dee0c6c5e3683c071",
        "fisher":
            "90760836a412aaa8b6c40ba2ef913abf68c30c97933e8a59705a0a7ce5fc6b04",
        "cramer_rao":
            "e3c50b92a0ebf02274afbe4e0a8d9350776bfe4446cc16a5a20c9f7921d52bbc",
        "moments":
            "49451b2b167c28fc49a52de3b5af9355ae368343bd80c41c7769aece022c0298",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_info_pipeline_bytes_are_unchanged(name):
    assert outputs(CASES[name]()) == GOLDEN[name]


def test_negative_zero_cells_are_written_as_negative_zero():
    assert "\n-0.0\n" in CASES["negative-zero"]().dumps()


def _density_binding():
    comps = [[[lambda x, c=0.1 * (i + 2 * j) - 0.3 * k: c * x + 0.05 * k
               for k in range(4)] for j in range(4)] for i in range(4)]
    offsets = np.linspace(-0.4, 0.6, 16).reshape(4, 4)
    return InfoTensorBinding(comps, offsets)


DENSITY_POINTS = ([0.1, 0.2, 0.3, 0.4], [-0.5, 0.0, 0.25, 1.0],
                  [2.0, -1.5, 0.75, -0.125])

DENSITY_GOLDEN = {
    0: "10.875005026778874",
    1: "6.289356194506887",
    2: "15.779570770895365",
}


@pytest.mark.parametrize("point", range(len(DENSITY_POINTS)))
def test_information_density_is_unchanged(point):
    value = information_density(_density_binding(), DENSITY_POINTS[point],
                                0.6)
    assert math.isfinite(value)
    assert repr(value) == DENSITY_GOLDEN[point]
