"""Golden outputs: the sha256 of every file that ``compare --plot`` and
``sweep`` write on the empty config, for three seeds, and of the files
that ``run`` and ``sweep`` write with override flags.

A change that is meant to keep the output files as they are (a faster
writer, a refactored engine) must keep these hashes.  A deliberate
change to the numbers or the formats updates them and says why.
"""

import hashlib

import pytest

from heatloop.cli import main

GOLDEN = {
    ("compare", 63, "comparison.txt"): "b35faa36c08c0f8d2d2822a312b06d8166cf5ac69ed3ebe9949937f815a1fb9a",
    ("compare", 63, "flat_p.csv"): "555a936c6a3d2a1aee7dc7d9151e13cf0528339a5d0570e0130d9a53aed2a6d7",
    ("compare", 63, "flat_p.svg"): "521bf92856f5370427939937495683ab7165010fae794091dd3f1720bafad5af",
    ("compare", 63, "flat_pi_fast.csv"): "a6b992fb8dfe095c1452d4b705f66a7de6fa868f414aa7cb5c79a23d88817d68",
    ("compare", 63, "flat_pi_fast.svg"): "690a50653085553b2c405859cefb628d550c8af15d8b65439406c0b0ee6ae87b",
    ("compare", 63, "flat_pi_slow.csv"): "3692048af8609707c297482db6741996b97eabd59e587b0f05da933736e2061b",
    ("compare", 63, "flat_pi_slow.svg"): "586ce456d8f3093ab3cb4c3cdfc1254decb5f7d4bc2e4ae6c2116ec12c4bd334",
    ("compare", 63, "ip_heat.csv"): "9632424dd10b26132c15453df3c03430fb038720764d18778fb213510d99b3dd",
    ("compare", 63, "ip_heat.svg"): "62ca4ce0cf67b58c5886c668b7e8c6a33c427d6507781e9587cf47645f76bc4f",
    ("compare", 63, "ip_heat_cool.csv"): "7eae113540a91a1289b03e56af3ff67fbf7b4af2a44f1740d15844995445b7d1",
    ("compare", 63, "ip_heat_cool.svg"): "5a54a453ce3222ca17efb4d686d8d375f347f909bb52aff869749d73a0095d2e",
    ("compare", 63, "pi_smooth.csv"): "de59d3fccbb62606a59065c4762bb7317802f207caafa05ba396c5bb53a5e0b3",
    ("compare", 63, "pi_smooth.svg"): "9a3c47358c77ed96712d19e8f56d1be4e03e0c4cc6605dd077fdeef2165b0bd7",
    ("compare", 63, "pi_step.csv"): "96b403c55db86ac4c4bd0e630571981b2160c778d75cc257886da59263908c4f",
    ("compare", 63, "pi_step.svg"): "cce0222b04ab2205789b4f4f5ad3ec22a4d67c89ebd9df3f3dd9172a0eaf0fe6",
    ("sweep", 63, "sweep.csv"): "c19c695a18657bf6236f60a9be72a3fe3777daefc6d753085e493c83f6066ac0",
    ("compare", 64, "comparison.txt"): "fdf4b3dabe726ed3b7ad793db472a744fc6bf073afd468e96afa12a14b0d12de",
    ("compare", 64, "flat_p.csv"): "c085101542e809c879bd02479de02f047af6fbf20c8bbf69df7e34993c0052c5",
    ("compare", 64, "flat_p.svg"): "c16aed4fbb3ff39faa6cee805a0b87f0f07573a7b69c1b483886fb849330e0b4",
    ("compare", 64, "flat_pi_fast.csv"): "05a49932500420744cc92e398fc86e73add9e68d44da69b25ba16bc5b5b91506",
    ("compare", 64, "flat_pi_fast.svg"): "f33515cab94a03ab86abfd935decf03f4033929f8912c227d5de0d6f823a9164",
    ("compare", 64, "flat_pi_slow.csv"): "459ce32ee835b52ae17ece8744bc2c677562e1c112c01a5807d325057776db15",
    ("compare", 64, "flat_pi_slow.svg"): "f7b30db7de2a47345c113c81a7a0c9366d4690bf98272b1e935ffdec90a9c4cb",
    ("compare", 64, "ip_heat.csv"): "ab171055fad62bd818cb1de325e380b31f17efd170ae753df26128782094dd9d",
    ("compare", 64, "ip_heat.svg"): "2539bb733270c58eac128dad0db6c77fd89060ac0ece4310c1ad40d2a7f64d06",
    ("compare", 64, "ip_heat_cool.csv"): "011ace5375041dc2ba927a6ef0c5fa6931436711ef60494e0f7633d48602203f",
    ("compare", 64, "ip_heat_cool.svg"): "de0d873613e341e70bacf6ec417d399e30cd89269c0fcb0e05f647fd7bc15180",
    ("compare", 64, "pi_smooth.csv"): "ca25698bb4a85ed92044973759b3e5b1bee4ce320e941b091e3845f47f7ef27c",
    ("compare", 64, "pi_smooth.svg"): "035e382adf678d628731104fd770e53b228e0ea066efbc789916eb88df600202",
    ("compare", 64, "pi_step.csv"): "0e73a60948e5e67e04946f2d4ee0fa1bd1fc4b686c87b4db8eff331244a021b4",
    ("compare", 64, "pi_step.svg"): "0d5cfd88834385afea3246afa4dc962c9c37bf91c14668a07671d2f0adb33f75",
    ("sweep", 64, "sweep.csv"): "06611119deb0e541e2749801108dc1ef6b304f8049726f27af528eb58d8cce26",
    ("compare", 7, "comparison.txt"): "a53dbca6accca5b90215d387580e9d567f1800c9bf8cca15ea1f52570fef7aa1",
    ("compare", 7, "flat_p.csv"): "aba7888c55ffa444fa348bfcd0a276c1fb814cf310bfc8a1370524b78fc261a8",
    ("compare", 7, "flat_p.svg"): "c2d622b6e439df632c336cfe1ef3e3f8cf9c8ccaee5fb29dc10628c1566a9248",
    ("compare", 7, "flat_pi_fast.csv"): "151aca04782810b7b0e52c2cc901d9c9dcb4dddd7c778f54bfe6319d41d34e4e",
    ("compare", 7, "flat_pi_fast.svg"): "624314f6c30db9b574acd8252ff575fc2e4eb2ecdbc282a0ddad597a8eaf9279",
    ("compare", 7, "flat_pi_slow.csv"): "fbffda72c24f48c9d52f1c496d23fce4734781a8e0f8cf624ce12b9a5fc9c856",
    ("compare", 7, "flat_pi_slow.svg"): "b72ae8d5222da51012a8b0bfff23d6321bd3b75cf7d5b2dc95216d7881ac1989",
    ("compare", 7, "ip_heat.csv"): "941c1494d3e4d27a28c16ef1d9a1801062f6e5b53cc93cfb5a2dc89e2c774f4b",
    ("compare", 7, "ip_heat.svg"): "ec0cc24741692ef1e704d383e01fc71c6bfbd2d100b3ec54fb11a4df5bdd9e41",
    ("compare", 7, "ip_heat_cool.csv"): "6e136eebbe2fcd1d721f5c25546ffb772222ad411db1ae991e06d88323246bab",
    ("compare", 7, "ip_heat_cool.svg"): "263b4ca6534f7e9b2f36de6a531cb8d3b897f09b1ddadd50895bccc3ffdccf87",
    ("compare", 7, "pi_smooth.csv"): "1eb7f5a839b02339dc17434b74e003318c21e6b4ea2ddc02147f52cac864d379",
    ("compare", 7, "pi_smooth.svg"): "fc1909cfcec01e6567636f3b1934b3e6f3c8c76d00ef870c04694a84e3a04362",
    ("compare", 7, "pi_step.csv"): "9857630b3ad0ed22c7ca1c05a12d323b604cbe15eeda62773c80d5f38e9caf13",
    ("compare", 7, "pi_step.svg"): "5b2f8b0a4ce3dd3d130b836c6f9a62f62bb2b94684c8434cf200f06f2f09ff92",
    ("sweep", 7, "sweep.csv"): "de43638cf0fb3b8d83b7a7593ab16e19e03a0ba72ee794a027a916feaca31515",
}


@pytest.mark.parametrize("seed", [63, 64, 7])
@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_output_files_match_golden_hashes(tmp_path, command, seed):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    assert main(argv + (["--plot"] if command == "compare" else [])) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    expected = {name: h for (c, s, name), h in GOLDEN.items() if (c, s) == (command, seed)}
    assert written == expected


# CLI flags on top of a config: each flag means its config key, and a
# --controller flag starts the controller from that kind's defaults, so
# the pi gains of LIGHT_PI_CFG do not reach the flat_p sweep
LIGHT_PI_CFG = "plant.c_a = 700.0\ncontroller.kind = pi\ncontroller.k_p = -0.3\n"

FLAG_CASES = {
    "run_flat_pi_step_heat": ("", ["run", "--plot", "--controller", "flat_pi", "--reference", "step",
                                   "--actuator", "heat", "--seed", "7"]),
    "run_ramp_heat_cool": ("", ["run", "--plot", "--reference", "ramp", "--actuator", "heat_cool"]),
    "sweep_flat_p_on_pi_config": (LIGHT_PI_CFG, ["sweep", "--controller", "flat_p", "--seed", "5"]),
}

FLAG_GOLDEN = {
    ("run_flat_pi_step_heat", "metrics.txt"): "dbab74aaf3f8fb3f01459eb9e3b329688349e6e57b3ec57a31cae4149e616411",
    ("run_flat_pi_step_heat", "plot.svg"): "79096256a3b0650dc6474b47a200c90a9e3c7c94b93dfd752877bdb2410a237f",
    ("run_flat_pi_step_heat", "timeseries.csv"): "7501b0945359d8505fa05c013ac6711581d0b7fb94d38f7f70681a42bb2a8b6b",
    ("run_ramp_heat_cool", "metrics.txt"): "ecde128f126e32d51244a1d939b046eaa6ae464aa081b0da756a551d9c0067ed",
    ("run_ramp_heat_cool", "plot.svg"): "b47ec117b2937cb69ca417c45b39a43c38a7979c9ab7d1827febf215bf3209b5",
    ("run_ramp_heat_cool", "timeseries.csv"): "d6a5d7c5b255481304b8df3370796232a946a8f17ce228fb086e783d1525e2fe",
    ("sweep_flat_p_on_pi_config", "sweep.csv"): "6e5f89d968cb1a2a743801b14cb6a04f65903f1d3f1116d638c0c4cb1c81fa55",
}


@pytest.mark.parametrize("case", list(FLAG_CASES))
def test_flag_outputs_match_golden_hashes(tmp_path, case):
    text, (command, *flags) = FLAG_CASES[case]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == {name: h for (c, name), h in FLAG_GOLDEN.items() if c == case}
