"""The scope of the byte-identity contract: one numpy build at one CPU
kernel level.

numpy picks its ``exp`` and ``log`` SIMD kernels when it starts, from
``NPY_DISABLE_CPU_FEATURES`` among other things.  The test reruns the
information and CLI goldens in a child process held below AVX-512 and
checks that exactly the 12 digests README names fail there, and that
`policy_information`, which the goldens do not pin, gives the same bits
at both levels.  Run as a script, this file is that child: it runs
pytest on its arguments and prints the failing ids and the bits as JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grovekit
from grovekit.variational import (
    cyclic_group,
    dihedral_group,
    direct_product,
    policy_information,
    word_distance_cost,
)

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ("tests/test_infotheory_golden.py", "tests/test_cli_golden.py")
BELOW_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"
#: the goldens README names as made at the AVX-512 kernel level
KERNEL_BOUND = sorted([
    "tests/test_cli_golden.py::test_golden_cli_output[info]",
    "tests/test_cli_golden.py::test_golden_cli_output[info-config]",
    *(f"tests/test_infotheory_golden.py::"
      f"test_info_pipeline_bytes_are_unchanged[{case}]"
      for case in ("bench-nested-0.75", "bench-nested-1.6", "cli-128x2048",
                   "depth-1-tau", "from-function-1d", "from-function-2d",
                   "phi-map", "two-point-sigma")),
    *(f"tests/test_infotheory_golden.py::"
      f"test_information_density_is_unchanged[{case}]" for case in "01"),
])


def information_bits() -> list[str]:
    """`policy_information` of C12, D7 and D3 x C4 at three smoothings."""
    groups = (cyclic_group(12), dihedral_group(7),
              direct_product(dihedral_group(3), cyclic_group(4)))
    return [float(policy_information(word_distance_cost(g), eps)).hex()
            for g in groups for eps in (0.3, 0.75, 1.4)]


@pytest.mark.skipif(not __cpu_features__.get("AVX512_SPR"),
                    reason="needs a CPU and numpy build with AVX512_SPR")
def test_goldens_below_avx512_fail_exactly_where_readme_says():
    src = str(Path(grovekit.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": BELOW_AVX512,
           "PYTHONPATH": os.pathsep.join(
               filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, __file__, *GOLDENS], cwd=ROOT,
                           env=env, capture_output=True, text=True,
                           timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["exit"] == pytest.ExitCode.TESTS_FAILED
    assert report["failed"] == KERNEL_BOUND
    assert report["passed"] > 0
    assert report["bits"] == information_bits()


class _Outcomes:
    def __init__(self):
        self.failed, self.passed = set(), 0

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.add(report.nodeid)
        elif report.passed and report.when == "call":
            self.passed += 1


if __name__ == "__main__":
    outcomes = _Outcomes()
    code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]],
                       plugins=[outcomes])
    print(json.dumps({"exit": int(code), "failed": sorted(outcomes.failed),
                      "passed": outcomes.passed, "bits": information_bits()}))
