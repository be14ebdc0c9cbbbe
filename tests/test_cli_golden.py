"""Golden outputs of the command line.

Each digest is the sha256 of ``repr`` of one in-process ``cli.main`` run
with ``--out``: its exit code, stdout, stderr and the name and bytes of
every file it wrote.  The temporary directory is replaced by ``<tmp>`` in
stdout and stderr, so messages that name an input path still compare.
The digests were taken before the report writer was rewritten and must
not change: they pin every byte, field order and file name of every
subcommand, including the reports of exit codes 1 and 2.
"""

import contextlib
import hashlib
import io
import os

import pytest

from grovekit import cli

#: name -> (argv, input files); ``{name}`` in argv is the path of that
#: input file, written before the run
CASES = {
    "enumerate-depth-0": (["enumerate", "--depth", "0"], {}),
    "enumerate-depth-1": (["enumerate", "--depth", "1", "--seed", "4"], {}),
    "enumerate-depth-2": (["enumerate", "--depth", "2"], {}),
    "enumerate-model": (
        ["enumerate", "--depth", "2", "--model", "{model.txt}"],
        {"model.txt": "insert_cost = 2  # dearer inserts\n"
                      "exclusions = no-arg-lift-at-depth-0\n"}),
    "enumerate-partition-3-1": (["enumerate", "--partition", "3,1"], {}),
    "enumerate-partition-2-2-unpruned": (
        ["enumerate", "--partition", "2,2", "--unpruned"], {}),
    "verify-0": (["verify", "--table", "0"], {}),
    "verify-1": (["verify", "--table", "1"], {}),
    "verify-2": (["verify", "--table", "2", "--seed", "3"], {}),
    "verify-2-entry27": (
        ["verify", "--table", "2", "--model", "{model.txt}"],
        {"model.txt": "table2_entry27_as_printed = true\n"}),
    "verify-2-no-exclusions": (
        ["verify", "--table", "2", "--model", "{model.txt}"],
        {"model.txt": "exclusions =\n"}),
    "situations-1": (["situations", "--order", "1"], {}),
    "situations-2": (["situations", "--order", "2"], {}),
    "situations-3": (["situations", "--order", "3"], {}),
    "info": (["info"], {}),
    "info-config": (["info", "--config", "{info.txt}", "--seed", "2"],
                    {"info.txt": "scale = 0.5\nsamples = 128  # coarse\n"}),
    "info-unknown-key": (["info", "--config", "{info.txt}"],
                         {"info.txt": "scale = 1.0\nsample = 16\n"}),
    "critical-quadratic": (
        ["critical", "--config", "{crit.txt}"],
        {"crit.txt": "functional = quadratic\ncenter = 1.5,-0.5\n"}),
    "critical-rosenbrock-unconverged": (
        ["critical", "--config", "{crit.txt}"],
        {"crit.txt": "functional = rosenbrock\ntol = 1e-12\n"}),
    "critical-unknown-functional": (
        ["critical", "--config", "{crit.txt}"],
        {"crit.txt": "functional = mystery\n"}),
    "geodesic-euclidean": (["geodesic"], {}),
    "geodesic-sphere": (
        ["geodesic", "--config", "{geo.txt}"],
        {"geo.txt": "metric = sphere\nsteps = 200\nh = 0.005\n"}),
    "geodesic-sphere-pole": (
        ["geodesic", "--config", "{geo.txt}"],
        {"geo.txt": "metric = sphere\nstart = 0,0\n"}),
    "geodesic-no-steps": (["geodesic", "--config", "{geo.txt}"],
                          {"geo.txt": "steps = 0\n"}),
    "simulate-default": (["simulate"], {}),
    "simulate-influx": (
        ["simulate", "--config", "{scenario.txt}"],
        {"scenario.txt": "rounds = 300\npolicy.family = slack1d\n"
                         "policy.theta = 0.2\nagents.order = 1\n"
                         "event.0 = 100,agent_influx,2\n"
                         "event.1 = 200,capacity_drop,0.7\n"}),
    "simulate-fixed-seed-rounds": (
        ["simulate", "--config", "{scenario.txt}", "--seed", "7",
         "--rounds", "120"],
        {"scenario.txt": "# a fixed law\ninspection_cost = 0.05\n"
                         "policy.family = fixed\n"
                         "policy.theta = 0.45,0.2,0.9,1.0\n"
                         "agents.order = 2\n"}),
    "simulate-invalid-law": (
        ["simulate", "--config", "{scenario.txt}"],
        {"scenario.txt": "policy.family = fixed\npolicy.theta = -1,0,1,1\n"}),
    "optimize-slack1d": (
        ["optimize", "--config", "{scenario.txt}"],
        {"scenario.txt": "rounds = 30\nagents.order = 1\n"}),
    "optimize-none": (
        ["optimize", "--config", "{scenario.txt}", "--family", "none"],
        {"scenario.txt": "rounds = 30\nagents.order = 1\n"}),
    "missing-config": (["info", "--config", "{missing.txt}"], {}),
}


def run_case(name: str, tmp_path) -> tuple:
    """(exit code, stdout, stderr, [(file name, bytes)]) of one case."""
    argv, inputs = CASES[name]
    inputs_dir = tmp_path / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for file_name, text in inputs.items():
        (inputs_dir / file_name).write_text(text)
    argv = [str(inputs_dir / arg[1:-1]) if arg.startswith("{") else arg
            for arg in argv]
    out_dir = tmp_path / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--out", str(out_dir)])
    written = ([(f, (out_dir / f).read_bytes())
                for f in sorted(os.listdir(out_dir))]
               if out_dir.exists() else [])
    tmp = str(tmp_path)
    return (code, stdout.getvalue().replace(tmp, "<tmp>"),
            stderr.getvalue().replace(tmp, "<tmp>"), written)


def digest(record: tuple) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()


GOLDEN = {
    "critical-quadratic":
        "6c1dd30a9daaf51da278e0f4c726f0050f85d9a2fbdabbd2acc9163868e02345",
    "critical-rosenbrock-unconverged":
        "5dda98dcca7343d1e7168ce5cafd6f1c49ca4e7831b7320a5c209003b4672ab7",
    "critical-unknown-functional":
        "8c3317ca8ab50c0411e4873e463652f07c4926a3d6265503d07dbe0b3db38054",
    "enumerate-depth-0":
        "c8788f4dd6723ccfd2516d510e51077510a41afcac6a5ebd106f47f8f8103faf",
    "enumerate-depth-1":
        "14faa4809cc094bc162bf6a4bd4bad5a8b35eceb38bef5b195222100ad6b40b3",
    "enumerate-depth-2":
        "06564fccbd480f4d9a1b7e6f66248a1abc05c7bc37f7405369a4fe52b66e3d0d",
    "enumerate-model":
        "f2cb2143c0a561535d43f4d6fb34ac8a5b0208d73e0f74221347fa09f76d6194",
    "enumerate-partition-2-2-unpruned":
        "86da5d37e6907bde35645134c680cc93830135e88611e98625dee052f8c48470",
    "enumerate-partition-3-1":
        "fedf25e8c4a230dfe2e99fe84f0ba8e275d7d22d299e110ec0171a1face2985c",
    "geodesic-euclidean":
        "69f2208adc782bd7e743cd0575e3746109a500bf47a7d47661e077e70a6d8b0f",
    # a usage error naming the file and key: exit 2, no report
    "geodesic-no-steps":
        "1eaab40d027ab2521be09024d5fc6e575783a3d0e46fb95378d9145dd1455d90",
    "geodesic-sphere":
        "1bff8f486bb3c51fe1a0dd7189da4a63386ac718546098293c0932641f7ac6c9",
    "geodesic-sphere-pole":
        "f27efb61f1d7dee6a8c600268d171743f0e0a5edebb422583f2017eaad539920",
    "info":
        "b9ed64724d4ee98c501816c19e647df57c3e2968c581e5531463e2d48b357099",
    "info-config":
        "adf158a5a9d8c6c6471d15bec7190f02dd2cc89e689086ae626c41c5031bca6e",
    "info-unknown-key":
        "81005d2f9d46939e327e2d4e971118cea8e2a8161423480602d380177fdd815c",
    "missing-config":
        "6dfff5e7f4fc8c0d454ca1ab1507d7111700abc04ccfd4300d03f3e017f9d060",
    "optimize-none":
        "e8d0c61aba8c34d66d580e484d5dd5104f491b0f0fce92b96680ee902777e520",
    "optimize-slack1d":
        "0606f1af8f472aac25f72b210a6924a6de425be605fbf21670a16e4fed07822f",
    "simulate-default":
        "8c6190452be05a8b7a952a3eed974655b7c77b0a6fbc4fe00fe375c0c7e6b97c",
    "simulate-fixed-seed-rounds":
        "d2498b33d542899fe2ec83ac9dd33ddb19b1c687cfb83b6d24c678b6b02596ba",
    "simulate-influx":
        "73fe21b211c1fa44a58176525231e69143830c7acbfcc3a4732507cc14823b85",
    "simulate-invalid-law":
        "21a7d6d277b0cf0583bbe03b0595f8bf18df0fd843ddf32ac8254d89771a47fe",
    "situations-1":
        "245fbdad277814b583eec671acd05f4c688d835524ad42c24c71315d689e9287",
    "situations-2":
        "b6080b0ff05b4ef56a4f61da53ed3495c72960e815d2247dde2bcafec161ae9c",
    "situations-3":
        "e87fc726f1311ac2db1ab14e560ebd2bc3aaecb8d681e355250ac68b4729f451",
    "verify-0":
        "addbf1d4b5e987b46fc60cd6296c1050428e1853a4d6bacf2676e46336fb741d",
    "verify-1":
        "53647aa0ddbfdcfc95b7f9f3779a96b4600ede21d16aa1d96bad5df05636f781",
    "verify-2":
        "6fe796eb2a1b3dd01625fde91da60c0b2772a97137829e9b7663ee7a09aa478e",
    "verify-2-entry27":
        "da0151aa0b90643e2a868801579b5b3a8ce12a72a8cfcfb4d84ff63ebd809d0a",
    "verify-2-no-exclusions":
        "6ec8c8cda53582a1234a549fd011fc34c5731be30a38718172b27cbae9561584",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name, tmp_path):
    assert digest(run_case(name, tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", ["optimize-slack1d", "simulate-default",
                                  "simulate-influx"])
def test_golden_cli_output_under_python312_sum(name, tmp_path, python312_sum):
    # the cases whose bytes moved while the engine used the builtin sum
    assert digest(run_case(name, tmp_path)) == GOLDEN[name]


def test_cases_cover_every_exit_code(tmp_path):
    codes = {name: run_case(name, tmp_path / name)[0]
             for name in ("info", "critical-rosenbrock-unconverged",
                          "geodesic-sphere-pole", "info-unknown-key",
                          "missing-config")}
    assert codes == {"info": 0, "critical-rosenbrock-unconverged": 1,
                     "geodesic-sphere-pole": 1, "info-unknown-key": 2,
                     "missing-config": 2}
