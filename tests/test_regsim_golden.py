"""Golden traces of the commons game.

Each digest is the sha256 of ``repr`` of an episode's welfare, total
utility, retained rounds, inspection charge, events and per-round rows.
They were taken before the episode loop was rewritten for speed and must
never change: any change to the engine that moves a single draw, sum or
row shows up here.  The matrix covers seeds x policy families x agent
orders x excession events, and `test_matrix_exercises_every_branch`
keeps it from silently losing exits, penalties or influx agents.
`CSV_GOLDEN` and `CSV_EDGE_GOLDEN` pin the bytes of `Trace.to_csv` the
same way.
"""

import hashlib
from functools import lru_cache

import pytest

from grovekit import regsim
from grovekit.regsim import (
    Excession,
    GameConfig,
    PolicySpec,
    run_episode,
)

SEEDS = (1, 2, 7)
POLICIES = {
    "none": PolicySpec("none"),
    "fixed": PolicySpec("fixed", (0.45, 0.2, 0.9, 1.0)),
    "slack1d": PolicySpec("slack1d", (0.2,)),
}
ORDERS = (0, 1, 2)
EVENTS = {
    "none": (),
    "influx": (Excession(150, "agent_influx", 2),),
    "shock": (Excession(200, "capacity_drop", 0.5),
              Excession(300, "regrowth_change", 0.1)),
}
MATRIX = [(seed, family, order, events)
          for seed in SEEDS for family in POLICIES
          for order in ORDERS for events in EVENTS]


@lru_cache(maxsize=None)
def episode(seed, family, order, events):
    config = GameConfig(seed=seed, inspection_cost=0.05)
    return run_episode(config, POLICIES[family], order, EVENTS[events])


def digest(trace) -> str:
    record = (trace.welfare, trace.total_utility, trace.retained_rounds,
              trace.inspection_charge, trace.events, trace.rows)
    return hashlib.sha256(repr(record).encode()).hexdigest()


GOLDEN = {
    (1, 'none', 0, 'none'):
        "8d15233fb047a166184bdf1e6c55f4cbb4040269b830b7ccd36f5f4ee941131c",
    (1, 'none', 0, 'influx'):
        "76c060db1722405aca22ec06aff127c6db5f8895a511d9f6e58de71710920c01",
    (1, 'none', 0, 'shock'):
        "b663215df0f641895508c7a326933e29ed8aac5ac4b914897fb933242953aef4",
    (1, 'none', 1, 'none'):
        "f0d4eb4d4345a0d0c636291a641b590d2c90dcae76ce37c1eb0b3e26f149ee76",
    (1, 'none', 1, 'influx'):
        "58b53cbf74b6f8837ceb7c8ee0c2d4bd10498f52692585cbc70d9f617881401e",
    (1, 'none', 1, 'shock'):
        "324bc85ea02a5c832c7bf88fa68c2a565081034f6aab6a19475033d5f2fe7bd5",
    (1, 'none', 2, 'none'):
        "f0d4eb4d4345a0d0c636291a641b590d2c90dcae76ce37c1eb0b3e26f149ee76",
    (1, 'none', 2, 'influx'):
        "58b53cbf74b6f8837ceb7c8ee0c2d4bd10498f52692585cbc70d9f617881401e",
    (1, 'none', 2, 'shock'):
        "324bc85ea02a5c832c7bf88fa68c2a565081034f6aab6a19475033d5f2fe7bd5",
    (1, 'fixed', 0, 'none'):
        "02238871c76e3f5d218e814349849e982ffe84562b0cf645321ce98660a5d3a4",
    (1, 'fixed', 0, 'influx'):
        "043f4e76cc9dde4fd92629b395fcabbac3373d89c1a2ccd09b89eeefc8212ac5",
    (1, 'fixed', 0, 'shock'):
        "20029e254f5e079221503304db48e0914be1292f41f70464662ec2b531409c3c",
    (1, 'fixed', 1, 'none'):
        "2e3a3545f9b6247dc2b55219a4dc318c1bda14f0ea6146f338b290c4bdc6c873",
    (1, 'fixed', 1, 'influx'):
        "8c4944158bdcc406fc308c5f5c47d867ca617dbbe90c7a9d3c0854995804bcd3",
    (1, 'fixed', 1, 'shock'):
        "ca245d460907c956e93614f32003180811bc20b259d68ebc4262d3e90ec60a61",
    (1, 'fixed', 2, 'none'):
        "f665ba2fb493fa916462bd884acf07ad7d04ed696983ab18f64762d2f73d69da",
    (1, 'fixed', 2, 'influx'):
        "01652c25e334db8dc452429bec5e1018abd62f9a08e2b6cb0d6adc11975bc66d",
    (1, 'fixed', 2, 'shock'):
        "5b0e3ecd1191ce06d5b6218e43c763eca9e3633779e13fd072329f3b263ed388",
    (1, 'slack1d', 0, 'none'):
        "2f91dcb96d6451d6b80e6c1ceee5f647045f7b2e67e00dedb741d8998fc8aafc",
    (1, 'slack1d', 0, 'influx'):
        "500f68aca4811ec4a52eaa903c504b3e1c9d75fa48e2ecd4d79cf0b597586e01",
    (1, 'slack1d', 0, 'shock'):
        "86db9f49d272cd5718b224f16e06ea37e0508afced96514d380e8f8b992ba888",
    (1, 'slack1d', 1, 'none'):
        "2281e3b4dfa1545d633ae009860c79a97a1a2f16bb47a8b5ca9cc40e5b0377ed",
    (1, 'slack1d', 1, 'influx'):
        "9c5f8ed031f09898aa66e0910248776f8492fba4df9aff1708e8aebdb8d7a6ae",
    (1, 'slack1d', 1, 'shock'):
        "88836f6e2321ac1197e92e76bab341581303872ebad9e3267d0bfe0dfcb1ee32",
    (1, 'slack1d', 2, 'none'):
        "dc08e4c5247ace6edd58ab59ecabddfe251bc90c4d6eabd436ef7225df16c796",
    (1, 'slack1d', 2, 'influx'):
        "888ef437d830fedfcd51ac8eb1d8d06ecd60fed2bfc24303999a61ba531daa16",
    (1, 'slack1d', 2, 'shock'):
        "40e243ff76714083a9bc0a962f416231fa3e9d402ae0520ad430badda439e387",
    (2, 'none', 0, 'none'):
        "f3a62907d5f09037eafe87c2c5571ac30d7bc491ed9a5d4bde750a6ef62d0cd3",
    (2, 'none', 0, 'influx'):
        "9a14666c1c34d4b72b617bdb38fd7f9d82642730652f9679a8c2e655550a6285",
    (2, 'none', 0, 'shock'):
        "e85010e59fee7397199ee178ec7e66b5a42bf9276255d750ef5a732521645ff9",
    (2, 'none', 1, 'none'):
        "92b4879bef02f5d5b4512f08e305c86a4ac598d8a4b59eea4edaa94f92ee4526",
    (2, 'none', 1, 'influx'):
        "5774149f0732aebdd5c356f1d6006ca34484dc44efda6f78ea4d3c120c894471",
    (2, 'none', 1, 'shock'):
        "eb4103ba5dd6018d6b5935c1e13c54e5b606f9e803326cf626496a2711ef83e6",
    (2, 'none', 2, 'none'):
        "92b4879bef02f5d5b4512f08e305c86a4ac598d8a4b59eea4edaa94f92ee4526",
    (2, 'none', 2, 'influx'):
        "5774149f0732aebdd5c356f1d6006ca34484dc44efda6f78ea4d3c120c894471",
    (2, 'none', 2, 'shock'):
        "eb4103ba5dd6018d6b5935c1e13c54e5b606f9e803326cf626496a2711ef83e6",
    (2, 'fixed', 0, 'none'):
        "9126f694468b116267b8a6f8e1c7e84b603920b87570af9d1c4d14db3556f90d",
    (2, 'fixed', 0, 'influx'):
        "56381e7c7411320e91df096185d963533802c3c78fda662835189dbcdb33bcf2",
    (2, 'fixed', 0, 'shock'):
        "ead3f8e3ca5a1f955e32a607cb9432d4def12247dda75089dbf72f3717924459",
    (2, 'fixed', 1, 'none'):
        "b7e967b690ab1831af864b294d268d6f2d289c52e80e213db7ca5f8e25b015a9",
    (2, 'fixed', 1, 'influx'):
        "600943b331999ae3ac69592ca5d2d53ebbf53df0fb701d36a6aba6555c119406",
    (2, 'fixed', 1, 'shock'):
        "0841df5d9267f51715f3e2abc1cb9afad41b5668373f336a55f5d0afc764740a",
    (2, 'fixed', 2, 'none'):
        "f665ba2fb493fa916462bd884acf07ad7d04ed696983ab18f64762d2f73d69da",
    (2, 'fixed', 2, 'influx'):
        "ebc2cce08bfd9c3549c8072365be2e75b23c7820bb6767011e3f3fed46326046",
    (2, 'fixed', 2, 'shock'):
        "5b0e3ecd1191ce06d5b6218e43c763eca9e3633779e13fd072329f3b263ed388",
    (2, 'slack1d', 0, 'none'):
        "33ba30552e963d7376428c8aa0f6b064df7da41eed7ece0190dc40247686db35",
    (2, 'slack1d', 0, 'influx'):
        "9eafffa1ad59bfcde25139c6d9343392177efe42f7536fff2540924d57ebed5a",
    (2, 'slack1d', 0, 'shock'):
        "cd2da3c1040d2d59beab1f43b61c1618c29210bc63137c921ebdc90223bd7ca6",
    (2, 'slack1d', 1, 'none'):
        "e713037a2e423f2469fbd12db525aad5c610497e1dcf93c5846fec46c009cda2",
    (2, 'slack1d', 1, 'influx'):
        "cf86aa693cf83a35bdb686303de1c617755ce02c30cbcdb466055f958761602c",
    (2, 'slack1d', 1, 'shock'):
        "98aef6168b5136de18bf8f32cb3846c74267271081accee75d8c2a6dd45d1ae8",
    (2, 'slack1d', 2, 'none'):
        "dc08e4c5247ace6edd58ab59ecabddfe251bc90c4d6eabd436ef7225df16c796",
    (2, 'slack1d', 2, 'influx'):
        "c248e7dc688eb4b018fb70dcd0ec6e25c5cd639d7998578e1e43c62694cff92f",
    (2, 'slack1d', 2, 'shock'):
        "5482efa69ff6715b13de5ec46cc8add42faa63f64f04dae1e6e3b1fc7ec138ed",
    (7, 'none', 0, 'none'):
        "4e3a1aa61cccd1082f6f746b1c23110900b8f311e1dc995a97acda8bdab50a4c",
    (7, 'none', 0, 'influx'):
        "7e452b97a8313f4bdd51c978bc3df7992861171cd11c9af8aac345e98bc1df3e",
    (7, 'none', 0, 'shock'):
        "34a7fdec8bd30a970a1e92450a56ef7d9adcb1b6b2fafde2a10a8a2fff2aea6d",
    (7, 'none', 1, 'none'):
        "ebe250ba55ae7951c477bc8d80cb706bae6ff4c2fcfbe8ccafa6415d2439ae1f",
    (7, 'none', 1, 'influx'):
        "a65dcf06c326601396ce73593c6654f3a1e40841c465bca36b0cb6ce49ff75ad",
    (7, 'none', 1, 'shock'):
        "7187a7b47f2436764eac2d8c0fb39467a439dd1ad32673d12faf3d0bd094071d",
    (7, 'none', 2, 'none'):
        "ebe250ba55ae7951c477bc8d80cb706bae6ff4c2fcfbe8ccafa6415d2439ae1f",
    (7, 'none', 2, 'influx'):
        "a65dcf06c326601396ce73593c6654f3a1e40841c465bca36b0cb6ce49ff75ad",
    (7, 'none', 2, 'shock'):
        "7187a7b47f2436764eac2d8c0fb39467a439dd1ad32673d12faf3d0bd094071d",
    (7, 'fixed', 0, 'none'):
        "da711a5e782153dc6c3f3396a43470876a482baceaf8fd1c143cd544b3b4182b",
    (7, 'fixed', 0, 'influx'):
        "bc702af7a481d7c421378c38b02bf6f2c58b072e5cc6923c614c0e7afdd2c54d",
    (7, 'fixed', 0, 'shock'):
        "d74a758af74624ad7346f49c649aaed0fd002979f81203701794323895ae0887",
    (7, 'fixed', 1, 'none'):
        "71e01a21eb003ece453a71c5facafa518d113afb202b2b650f23cf7fb7d2cc99",
    (7, 'fixed', 1, 'influx'):
        "a98d7b23a2077b7552cc6b37713301e7b6bfead0affdad3eb954ceece5d1fc52",
    (7, 'fixed', 1, 'shock'):
        "ea7b58567e9fa9b4da32548e042b1c625730864fd5106c382e5c147339869903",
    (7, 'fixed', 2, 'none'):
        "f665ba2fb493fa916462bd884acf07ad7d04ed696983ab18f64762d2f73d69da",
    (7, 'fixed', 2, 'influx'):
        "01c5a903a95e52bc23361314ef0b4f573b828030e67784e9d4b0841c36d84f37",
    (7, 'fixed', 2, 'shock'):
        "5b0e3ecd1191ce06d5b6218e43c763eca9e3633779e13fd072329f3b263ed388",
    (7, 'slack1d', 0, 'none'):
        "b0cb8f76a677f65e5579eb05183d168d90e8197550526d94e4b59b4f8feba0e6",
    (7, 'slack1d', 0, 'influx'):
        "81b7189e938547286e6bdcbc11cacd32c6fa161204fd358e1d8305cba7bfa785",
    (7, 'slack1d', 0, 'shock'):
        "1dfec6b2f06de98b6b9403167eaddd3b795e33ff08a99e2f25a1550b9aa6b2da",
    (7, 'slack1d', 1, 'none'):
        "b11604ac41b9999453dc18380c2b7a7d97a39a84f3f2beeb84629df1c6c453bd",
    (7, 'slack1d', 1, 'influx'):
        "1680fb074ece35fdd188c9a5ad702e0f948001d3bd39413d82c4b1443a7bb24a",
    (7, 'slack1d', 1, 'shock'):
        "4c34f479002b637e2096a7ab93a5549cba4f1f12714bbba9a0dfd02af321111d",
    (7, 'slack1d', 2, 'none'):
        "dc08e4c5247ace6edd58ab59ecabddfe251bc90c4d6eabd436ef7225df16c796",
    (7, 'slack1d', 2, 'influx'):
        "723dac833c1ab347a2b91311a88af48d4bb9ff7e45ef4e6dca68072e89c6fb53",
    (7, 'slack1d', 2, 'shock'):
        "ead0568dfae784c2e718e61fbb08876ae828be591c7ffa5196edb1ce816369a1",

}


@pytest.mark.parametrize("case", MATRIX,
                         ids=lambda case: "-".join(map(str, case)))
def test_golden_trace(case):
    assert digest(episode(*case)) == GOLDEN[case]


def test_golden_traces_hold_under_python312_sum(python312_sum):
    # from Python 3.12 the builtin sum compensates; 57 of these traces
    # moved while the engine summed its floats with it
    moved = [case for case in MATRIX
             if digest(episode.__wrapped__(*case)) != GOLDEN[case]]
    assert moved == []


#: sha256 of each matrix episode's `Trace.to_csv` text, taken before the
#: serialiser rendered each distinct value once
CSV_GOLDEN = {
    (1, 'none', 0, 'none'):
        "097ab8672cffa611e87912bd491c5d89ca65f5d021124622534f54a0559b2cb6",
    (1, 'none', 0, 'influx'):
        "ccad76cc8e76c070efb751e31f5f9b9822efd734c26f8c365357d553b49379b2",
    (1, 'none', 0, 'shock'):
        "5599d501d62fdbe7c253003ac2e6a2aaee12b9f603bdd10f7e086581bf67f838",
    (1, 'none', 1, 'none'):
        "bf6cb6553d0ac1eb28d23fb0149c2719071c9c5b6bd86dbbf8cf1b70647fb9b7",
    (1, 'none', 1, 'influx'):
        "5e959508cbf693cf4a79a4ed18b8051cce5fab1a22383aa58abc3ac0fec3bdca",
    (1, 'none', 1, 'shock'):
        "c79ea1160fcefd2a710a54b507dee75f6acac247621fbef6c8225ef956f4257c",
    (1, 'none', 2, 'none'):
        "bf6cb6553d0ac1eb28d23fb0149c2719071c9c5b6bd86dbbf8cf1b70647fb9b7",
    (1, 'none', 2, 'influx'):
        "5e959508cbf693cf4a79a4ed18b8051cce5fab1a22383aa58abc3ac0fec3bdca",
    (1, 'none', 2, 'shock'):
        "c79ea1160fcefd2a710a54b507dee75f6acac247621fbef6c8225ef956f4257c",
    (1, 'fixed', 0, 'none'):
        "fa5393a22a3d180ae218b540cf20d92a4a964d1263ff0f370b2e7bda5a39cb24",
    (1, 'fixed', 0, 'influx'):
        "5b399882a462f239339136a0cefa341aa3009c11b5bc6f30b68e8dfc3ef1d70e",
    (1, 'fixed', 0, 'shock'):
        "957f7da5a4f7884f6a26c56f9e0544532bf2655024bfd74556a3cf486cc36452",
    (1, 'fixed', 1, 'none'):
        "d3a3a973abd95caf4954bd9f310c56b0254885eba48cd832930c854b31e4d065",
    (1, 'fixed', 1, 'influx'):
        "071ae0826b9344409cdb2b351e72203be9ff3285e47385e77f5c0a9cc1096d41",
    (1, 'fixed', 1, 'shock'):
        "4dce6fccdc478bf5a5ffffbe518374a82a9a73841549a33fd26cc54c10dbd613",
    (1, 'fixed', 2, 'none'):
        "1bb041cdc8e1cfcd6e738f2a078c9c8c2a29c48351129fba15ba99ef75ceca79",
    (1, 'fixed', 2, 'influx'):
        "fe9a5b7a2ba33b97dfce973396d69b6c034568144bfbf3a4af7b730bb0ccc7e9",
    (1, 'fixed', 2, 'shock'):
        "588b1b85d9df6dacb666122667420bec961080ce3080c935ec3fe29ff6db7159",
    (1, 'slack1d', 0, 'none'):
        "d6ff282776847fdee2582692b5c6aa6f45713384fa456e89b27c6f91bb25edea",
    (1, 'slack1d', 0, 'influx'):
        "4e03f74ffc81f405093cfa49f94dcaa65a3c6814c59eabcb976f00f791df2ecc",
    (1, 'slack1d', 0, 'shock'):
        "19cee3ad8b98902ef1d19439df79f420ed8fa339d77aaf4884ec50c1c8c08619",
    (1, 'slack1d', 1, 'none'):
        "85ff435087303a1cb83546c635452410840824544c8b107fb93b844f583f2906",
    (1, 'slack1d', 1, 'influx'):
        "dc16b743c880a8f8fb0cbd4c058d76ab29c99d08e7e6bd41520763ae637613ce",
    (1, 'slack1d', 1, 'shock'):
        "a9e23cbcbe52bd54d02dbb793ecd947c8e8127e2040fadd08e27ac6dec70c347",
    (1, 'slack1d', 2, 'none'):
        "28552206dee01015009cc1839998fedcabdf195edc30b7aa00ecf321073cd3ee",
    (1, 'slack1d', 2, 'influx'):
        "738923ef22062c049ee08f03a809da1edfb1f58a8dad29802029978d8a0be99c",
    (1, 'slack1d', 2, 'shock'):
        "3dcf3bd4c0dab29d303aba35f5fee90cfcbbd6989b44e35b922c8d81072e0da3",
    (2, 'none', 0, 'none'):
        "9281fba139c4419c729523f7c318d070e5c7a81acb1271d20537b97c4af031f2",
    (2, 'none', 0, 'influx'):
        "9a7887cc7ef3e1b1d0aa5c245c45f65b0ea244370a0774611b4b58cb3badf3df",
    (2, 'none', 0, 'shock'):
        "64cf122c87ce14e04ed3dc031a16c88f7ad14bfe7f4d0af4b9bb733719e75de2",
    (2, 'none', 1, 'none'):
        "a4e7769bc28793c319defafec2fd77c09879697b959d1a7ce3f4cce1cb915834",
    (2, 'none', 1, 'influx'):
        "8fea1747a578bd858a379220c935a709fc1ed5e5dd7c5b2839f9dacfd86eeab7",
    (2, 'none', 1, 'shock'):
        "a1ad83b4f8974bc4ae6264c3f14c690a75cb9a3d3a3096602711cfd34a93bef9",
    (2, 'none', 2, 'none'):
        "a4e7769bc28793c319defafec2fd77c09879697b959d1a7ce3f4cce1cb915834",
    (2, 'none', 2, 'influx'):
        "8fea1747a578bd858a379220c935a709fc1ed5e5dd7c5b2839f9dacfd86eeab7",
    (2, 'none', 2, 'shock'):
        "a1ad83b4f8974bc4ae6264c3f14c690a75cb9a3d3a3096602711cfd34a93bef9",
    (2, 'fixed', 0, 'none'):
        "d715a4133986214a13069b33e598ec473c4266acf7526c5098e2e6a7fbf10afb",
    (2, 'fixed', 0, 'influx'):
        "1f8eefe9134e975215ac558e6f27562852d692427f49a33ce26a65a85b3ed067",
    (2, 'fixed', 0, 'shock'):
        "7e4ccc2af695c8be86a0b137962c27d2b26206064d7d057eb16c82e391798247",
    (2, 'fixed', 1, 'none'):
        "6e1e06ca1ab37c1005433442967fb8dbdc2589c911b3fea7edbe554e20ceebc9",
    (2, 'fixed', 1, 'influx'):
        "0da44b4cc28587cb2c284938eaff923d9fdbbc4bea74e0ae3c854aeefee6cf05",
    (2, 'fixed', 1, 'shock'):
        "443a3f681c62bef4b2b779aab2ec7c2c2bb7c3ac06a6d7e4998b3985bd905392",
    (2, 'fixed', 2, 'none'):
        "1bb041cdc8e1cfcd6e738f2a078c9c8c2a29c48351129fba15ba99ef75ceca79",
    (2, 'fixed', 2, 'influx'):
        "683508c6255d5fb1b5c9c091bc92e5577e380824dde2ea03c8c4536cb792c852",
    (2, 'fixed', 2, 'shock'):
        "588b1b85d9df6dacb666122667420bec961080ce3080c935ec3fe29ff6db7159",
    (2, 'slack1d', 0, 'none'):
        "c0ca96f9b1b2f8f56608c0c610763424a9bff92c20cb4526e4d8de77fbac7646",
    (2, 'slack1d', 0, 'influx'):
        "a5d41ff18d71addce17971934efe3a3130f66eb4eba6235dd6f187ebd2e60529",
    (2, 'slack1d', 0, 'shock'):
        "69e2bb92d43cfe1faa43b43f18adbff9aad880a8363c6c2308dcb36ff60808e9",
    (2, 'slack1d', 1, 'none'):
        "2080ff9d42cb24433c11250e25bcbfbacf40202258f920cbd7deb6e40105c83d",
    (2, 'slack1d', 1, 'influx'):
        "975d615134a254e12d772be7ea01518766d4d682e35efe1174368345ee38a41b",
    (2, 'slack1d', 1, 'shock'):
        "31e418cfd92f661eca8673cf246b3ce7bbbd14f5a2739bd270e2f14d40b3df9f",
    (2, 'slack1d', 2, 'none'):
        "28552206dee01015009cc1839998fedcabdf195edc30b7aa00ecf321073cd3ee",
    (2, 'slack1d', 2, 'influx'):
        "10f190b25814cab21b174a40aaeee0b347d0fc0605505822d9afafb802949128",
    (2, 'slack1d', 2, 'shock'):
        "b07f117e4bfaf234df7eec7124c3559dd14d6cea19831109038b0230ecf45b6a",
    (7, 'none', 0, 'none'):
        "2fd5506f7affe3c5c80a21001da825e8bc88647fbfdba85458660117a54ac0ba",
    (7, 'none', 0, 'influx'):
        "ceb849eccb4a66141744b640f0d245bae275b0e11bbba05f2e158a3dce54786b",
    (7, 'none', 0, 'shock'):
        "1ba6e4bf7cd2a83d949cdc7a3691175aa750a61c75129385502f8a8c8e9fa9ac",
    (7, 'none', 1, 'none'):
        "04dc58a6a3c7009326d1fd512a8db2e3e715154457ba27187f25ff83373887e8",
    (7, 'none', 1, 'influx'):
        "35fa8283ea4587e7a83f7ee3658494140ff2218e30f0851c3ea3038b1705c964",
    (7, 'none', 1, 'shock'):
        "a8aa21dec3bf1715df80bd201c7787d19570c8659fb0415e78f5cd0b8711fd62",
    (7, 'none', 2, 'none'):
        "04dc58a6a3c7009326d1fd512a8db2e3e715154457ba27187f25ff83373887e8",
    (7, 'none', 2, 'influx'):
        "35fa8283ea4587e7a83f7ee3658494140ff2218e30f0851c3ea3038b1705c964",
    (7, 'none', 2, 'shock'):
        "a8aa21dec3bf1715df80bd201c7787d19570c8659fb0415e78f5cd0b8711fd62",
    (7, 'fixed', 0, 'none'):
        "e50ee2ed620c3587596001f957edf6bf53549019a443dd4c02af27d43edc72d3",
    (7, 'fixed', 0, 'influx'):
        "b400dcf6c15f48eeb0dac0e80852e9f3c495d932a5d093c5aa68bdfacceb0b4b",
    (7, 'fixed', 0, 'shock'):
        "7a10277feb620513d6e30653d0dd6b3562cd1f8d1240c0d8d71513d964b7cd16",
    (7, 'fixed', 1, 'none'):
        "1a626919988dd9e96332505b2a713838d7b0ac8be9e1a59b428d5181cf8e6793",
    (7, 'fixed', 1, 'influx'):
        "fc519bf19cce206f5912688fadf75e2100a8e2a339a975d63425be1f177b21a9",
    (7, 'fixed', 1, 'shock'):
        "f0043233b11baba80af9be0d86800dcd879944add5a2a63a291ed209e353dc5f",
    (7, 'fixed', 2, 'none'):
        "1bb041cdc8e1cfcd6e738f2a078c9c8c2a29c48351129fba15ba99ef75ceca79",
    (7, 'fixed', 2, 'influx'):
        "2d1370262a9724e7e1b155c6df8411d8bcbc2163347469d95819bd8dae64df00",
    (7, 'fixed', 2, 'shock'):
        "588b1b85d9df6dacb666122667420bec961080ce3080c935ec3fe29ff6db7159",
    (7, 'slack1d', 0, 'none'):
        "f64fe1a5c88dfab8ec0442b05eda17f02fb7987c3b91c693e14237c784766315",
    (7, 'slack1d', 0, 'influx'):
        "964155a3706569313ff3740a506c72b757a0aedd19b694cad056734f542f5dd4",
    (7, 'slack1d', 0, 'shock'):
        "1167e7c6601872ecfa711c0237cf8973fcab778bbc88f7eed7b5ce8054b9becb",
    (7, 'slack1d', 1, 'none'):
        "a3c96487ff666e85672c40f2024254ac4185fa2e18c1f7086f806a158af9f396",
    (7, 'slack1d', 1, 'influx'):
        "13dc3ac1033d16aa1f4c2b288c7845909b793b575ba4ea99701c9da0c65aa445",
    (7, 'slack1d', 1, 'shock'):
        "f667385a91280d409e9fa4de0f1074e0f8719cce870abb33add0ddb4177f28fb",
    (7, 'slack1d', 2, 'none'):
        "28552206dee01015009cc1839998fedcabdf195edc30b7aa00ecf321073cd3ee",
    (7, 'slack1d', 2, 'influx'):
        "ae4032c13f3b0477bc475bf1a318071daf153190968e7b26e948f4510a33362b",
    (7, 'slack1d', 2, 'shock'):
        "5afcb555d1337b9e80c31e64d71d119e0ba0ccbbed4986d9b175a605f765d84a",
}

#: episodes whose cells hold values that are equal but render apart: an
#: int law cap beside equal floats, a -0.0 cap and an int capacity
CSV_EDGES = {
    "int-theta": (GameConfig(rounds=60), PolicySpec("fixed", (3, 0, 1, 1)),
                  2),
    "negative-zero-cap": (GameConfig(rounds=60),
                          PolicySpec("fixed", (-0.0, 0.2, 0.9, 1.0)), 2),
    "int-capacity": (GameConfig(capacity=100), PolicySpec("slack1d", (0.2,)),
                     1),
}

CSV_EDGE_GOLDEN = {
    "int-theta":
        "abf45b275aea45b7a00acfea373ea4f97654370f57b4d1414e038d456ae20892",
    "negative-zero-cap":
        "c67a82dbae0e4a09a55c767f3181ecb4c2df5e3b04d30f98240434be35354e4d",
    "int-capacity":
        "85ff435087303a1cb83546c635452410840824544c8b107fb93b844f583f2906",
}


def csv_digest(trace) -> str:
    return hashlib.sha256(trace.to_csv().encode()).hexdigest()


@pytest.mark.parametrize("case", MATRIX,
                         ids=lambda case: "-".join(map(str, case)))
def test_golden_csv(case):
    assert csv_digest(episode(*case)) == CSV_GOLDEN[case]


@pytest.mark.parametrize("name", sorted(CSV_EDGES))
def test_golden_csv_edge_cases(name):
    assert csv_digest(run_episode(*CSV_EDGES[name])) == CSV_EDGE_GOLDEN[name]


def test_matrix_exercises_every_branch():
    traces = [episode(*case) for case in MATRIX]
    assert any(":exit:" in ev for t in traces for ev in t.events)
    assert any(p > 0 for t in traces for row in t.rows
               for p in row["penalty"])
    assert any(":agent_influx:" in ev for t in traces for ev in t.events)
    assert any(t.inspection_charge > 0 for t in traces)


#: 3200-round order-1 slack1d episodes whose 8 agents all leave by round 31
ALL_LEAVE = {
    1: "20d7d0602ea91119101ee7e0c9d03a4e476f47ad557611896bccfb02b954a72f",
    2: "99469a2a26c656803f5e7925134b850220adc722e09a7e4a11dcf46258e17918",
    3: "4846f7161a682e0a8f6683760f6e534b2325113d32068569b00f4b26d42a4e3f",
}


def _never():
    raise AssertionError("a stream was read after the last exit")


@pytest.mark.parametrize("seed", sorted(ALL_LEAVE))
def test_rounds_after_the_last_exit_read_no_stream(seed, monkeypatch):
    # once no agent plays, every agent's streams raise when read; the
    # remaining rounds only regrow the resource and keep their bytes
    played = regsim.step

    def step(state, law):
        grants = played(state, law)
        if not state.playing:
            for agent in state.agents:
                agent.decision_draw = agent.enforcement_draw = _never
        return grants

    monkeypatch.setattr(regsim, "step", step)
    trace = run_episode(GameConfig(seed=seed, rounds=3200),
                        PolicySpec("slack1d", (0.2,)), 1)
    exits = [ev for ev in trace.events if ":exit:" in ev]
    assert len(exits) == 8 and int(exits[-1].split(":")[0]) == 31
    assert not any(trace.rows[32]["active"])
    assert digest(trace) == ALL_LEAVE[seed]
