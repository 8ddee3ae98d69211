"""The CLI's output bytes, pinned by digest.

Each case runs the whole command set into one output directory:
``train-baseline``; ``finetune`` with ``full``, ``head`` and ``profit`` from
that baseline; ``evaluate`` of the PROFIT checkpoint on both domains; and
``sweep`` on both axes.  The sha256 of every command's stdout (with the
output directory written as ``OUT``) and of every file written is compared
with the digests recorded when the test was added.  A diff means a
refactor changed what the CLI produces.

The second config exercises the paths a plain run leaves out: an Adam main
optimizer, an RMSProp reference with ``n_ref = 2``, PROFIT warmup, and an
``eval_every`` that divides none of the step counts, so every final report
forwards the grids itself.
"""

import hashlib

import pytest

from profit import cli

CONFIGS = {
    "plain": """\
dims = 2,8,8,1
batch_size = 8
baseline.steps = 40
finetune.steps = 12
eval_every = 4
seeds = 0,1
""",
    "adam_rmsprop_warmup": """\
dims = 2,6,5,1
batch_size = 16
baseline.steps = 30
finetune.steps = 11
finetune.optimizer = adam
profit.ref_optimizer = rmsprop
profit.n_ref = 2
profit.warmup_steps = 3
eval_every = 4
seeds = 3
""",
}


def cli_digests(config_text: str, tmp_path, capsys) -> dict:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    seed = int(config_text.split("seeds = ")[1].split(",")[0])
    common = ("--config", cfg, "--out-dir", out)
    commands = {"train-baseline": ("train-baseline", *common)}
    for strategy in ("full", "head", "profit"):
        commands[f"finetune {strategy}"] = (
            "finetune", *common, "--checkpoint", out / f"baseline_seed{seed}.pfit",
            "--strategy", strategy,
        )
    for domain in ("original", "new"):
        commands[f"evaluate {domain}"] = (
            "evaluate", *common, "--checkpoint", out / f"profit_seed{seed}.pfit",
            "--domain", domain,
        )
    for axis in ("n_ref", "lr_ratio"):
        commands[f"sweep {axis}"] = ("sweep", *common, "--axis", axis)

    digests = {}
    for label, argv in commands.items():
        assert cli.main([str(a) for a in argv]) == 0, label
        captured = capsys.readouterr()
        assert captured.err == "", label
        stdout = captured.out.replace(str(out), "OUT")
        digests[f"stdout {label}"] = hashlib.sha256(stdout.encode()).hexdigest()
    for path in sorted(out.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


PINNED = {
    "adam_rmsprop_warmup": {
        "stdout train-baseline": "111d0b287424854a44a6777422f6f4a1fe07ac317b2fb0c2bb23b82312dc8fe0",
        "stdout finetune full": "bedf40c8e80530ca1c8faa9bb6170da7c045983afb2bcd4cfe6dbac65c0dc5d8",
        "stdout finetune head": "64f5926985096ec163a15294d45f56c25a0b9b9783de91bfe3bf9a33f107fa22",
        "stdout finetune profit": "436287a265f21cc1e0acca46ab05672e13568dc05c68d271211bde24bb7c6843",
        "stdout evaluate original": "8d10ec25dcc656346df14cb6acbffb0021710f3b4350a8243d0a9efa1458fed4",
        "stdout evaluate new": "1be3ae8f706d86fbe32aa8a18d70af17c706e45626a70f07242f1f456f96cba8",
        "stdout sweep n_ref": "ab947de18e64674206d51632735d09f2f73d21b38f10bb56d6a738cdd48f7257",
        "stdout sweep lr_ratio": "a78e46fd09cc979abe6f49fed35d19fc9cac371d0b7069d4e5eea87f7038e6a6",
        "baseline_metrics_seed3.csv": "ea2709308d8db7cf4479109bc7d623a7d5504f998dbaed5ad9e5ab314648ab62",
        "baseline_seed3.pfit": "101d60a363920bf4190582d6374a8cae06c04affe7bb690c70c804075544a554",
        "full_metrics_seed3.csv": "0803a17392abed46c637b56017484a09851b8d83c973cbb5a928698c335bd82b",
        "full_seed3.pfit": "034ec8870887fefc911c3e648d6072ea4bb2276bc5f3395d581326562a74303a",
        "grid_new.csv": "fadfbb0c553b0f6f14f4160785f002e46b90469bb1ad5066796bf8b03effa0d1",
        "grid_original.csv": "01dcd15c2f11699cb6c1eb78f0a6986ee645a7eb6e18391fdb20725524f912e9",
        "head_metrics_seed3.csv": "87312247a96e57919123cef43e54dcb09785e5a181d8fca71a4d6b1ac35ec9a1",
        "head_seed3.pfit": "0f157ea037d6a578f84065bb640451a05038d055c1ebd9f78adc2427b2e7e981",
        "profit_metrics_seed3.csv": "d2c5ee327e8445b5e5059c06f3ef4890cefbd843b3eaba0f05b4958e4e973d01",
        "profit_seed3.pfit": "ef72bfcaacd6535bd13962abf8d5aab0a7496933d255b5558b56392dcce37157",
        "profit_trace_seed3.csv": "7d165bb747d439c9fcacbe4759718dd8ed1148d1d4b38b47dd5c8a2f030b50c7",
        "sweep_lr_ratio.csv": "f2701d52f12d0724f0dfd5b1243f4c6ec12f949b66145ad629fe0eef1e4de998",
        "sweep_n_ref.csv": "c867172b1b478e6f5239db0c77a10750970efada7a25ac8fbfeb4ce93fd088f7",
    },
    "plain": {
        "stdout train-baseline": "89f954646f4194eb0c5fd979e10944c46030577d6f126bbef8b140f534d78d94",
        "stdout finetune full": "38e150652188d75625182c61ba1211259756a19add3a7a79ce8d8c2c41fdf224",
        "stdout finetune head": "2133a69d6604f17001d7ee655d36d2013aa1e8f8f96364868cc03a017668abbc",
        "stdout finetune profit": "b3a39c33f2f34b9bde591798f4259206c7780fb3301879cd7c949b38a91ee14e",
        "stdout evaluate original": "1216ba26776fcbf82eca18ad73567d069633ce2427b0c42168c384c2d5a48a02",
        "stdout evaluate new": "f6b6ed47c85470b6ffba8e8ab372b63bdd61655fe4f9069bb8c3c653b543beb7",
        "stdout sweep n_ref": "3e74225a6dbeb5d57c090122360b6a7c5c3d7c1cecf1e697b94f5e9c6a6486c4",
        "stdout sweep lr_ratio": "29393296402223ec1ec18949c8d77cb1d1b8a12821cf78bc2f985466ecbfe0d7",
        "baseline_metrics_seed0.csv": "6c3f23025bd9e0873c2e8dd008736c0ce636d217ad8e0e8aa2b58d44badabb6f",
        "baseline_seed0.pfit": "98da15eb0a1360c480a5059cf7b24d0041402ba6c4349060ebb7bfd9072fddef",
        "full_metrics_seed0.csv": "637bfed78a924aa2d52af7e4d0dda3887e0df5627c5e68d0bd7f5d31d6adf0bc",
        "full_seed0.pfit": "7c8d442559eec681698484d03d00f7875f7e882c3227ec3ef9d819fb0d6f8c76",
        "grid_new.csv": "63be84de56156bd1e4e70e51d801e6bb6f5dd6a16f12783c70264603c7a0ab07",
        "grid_original.csv": "4cea238cd6686f2cc586fc8728830b4120739f3cb9c56f4b47c56a256b90a0b9",
        "head_metrics_seed0.csv": "66796c0215591b4c5ae60894507f40400d96e8fc5051dc25d7bfd2c17cfa8782",
        "head_seed0.pfit": "ecd066fc08b12be0d44f7b10d3e026bbd19904f80ca96ce63c105c7efebc93fd",
        "profit_metrics_seed0.csv": "67689f2d9421efa4fe7b44f36ec58bd0284b5856f3ad456e6448662127effc1f",
        "profit_seed0.pfit": "bbdcdeb31f25cf29a9e61dff507019a6a600a359d31971e254d1460088cce9b8",
        "profit_trace_seed0.csv": "7f36a87aaa0669ee64257fda01deea52e8c5e4ef4277d4eb777044665963bbb4",
        "sweep_lr_ratio.csv": "d9612f0e862a78be12afd83ef3c8f5705d477c7e9cb9044685a6001b99cf2c3a",
        "sweep_n_ref.csv": "f110ea826002f6ab7e831b01721c29d34d98bd3b195e0359bccbd016dcd5225e",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_outputs_match_their_pinned_digests(name, tmp_path, capsys):
    assert cli_digests(CONFIGS[name], tmp_path, capsys) == PINNED[name]
