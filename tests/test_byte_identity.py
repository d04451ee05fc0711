"""Byte identity of every CLI output on the configs of test_cli.

Each (config, command) run is reduced to one sha256 digest of its exit
code, stdout, stderr and written files (temporary paths masked).  The
digests pin today's outputs, so a change meant to keep them identical
(a faster kernel, a refactor) is checked here.  A changed digest means a
changed output: re-record it only when the change is intended, and say
why in CHANGES.md.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
import yaml

from ratsys.cli import main
from test_cli import (
    CASE3_CONF,
    IDENTITY_CONF,
    K1_CONF,
    PROBE_BASE,
    RANK_ONE_CONF,
    STRADDLE_CONF,
    SWEEP_CONF,
    TRICHO_CONF,
    UNBOUNDED_CONF,
    WRONG_EXPECT_CONF,
)

CONFIGS = {
    "identity": IDENTITY_CONF,
    "rank_one": RANK_ONE_CONF,
    "unbounded": UNBOUNDED_CONF,
    "case3": CASE3_CONF,
    "k1": K1_CONF,
    "tricho": TRICHO_CONF,
    "wrong_expect": WRONG_EXPECT_CONF,
    "sweep": SWEEP_CONF,
    "straddle": STRADDLE_CONF,
    "probe_base": yaml.safe_dump(PROBE_BASE),
}

#: Small enough to keep the whole table fast; every command takes both flags.
FLAGS = ["--horizon", "300", "--trials", "2"]

#: (config, command) -> sha256 of the run.
DIGESTS = {
    ("case3", "simulate"):
        "6796447a92e43df0b6b19a69cbd5658440ed92bb84b438f3bf98488429857b27",
    ("case3", "classify"):
        "0ffd768484c458b6c638e6617e639a578e302515fd6cf7dee8a06100ad08e22b",
    ("case3", "verify"):
        "7ddee9931273ca6b8f9140c6ce56fe25a29a943ab3bbe005d84bb8e3b0a99b85",
    ("case3", "sweep"):
        "b9ced91dd7e4e4e9d3f48c7c1354116e4c8c41bc3144d76549b86ef5d49ee81f",
    ("identity", "simulate"):
        "7bca6811621ba41f785af686cc5a30df425a4f1a51e01f9191539d767431c3ff",
    ("identity", "classify"):
        "f0d12509bb16539969871a1a544aeb09747774cf860baeec8ed35e3cd696e2f4",
    ("identity", "verify"):
        "fbf04f68afb65e71e97df345c5bca67551fe47fb679af9162842f423ffcd6166",
    ("identity", "sweep"):
        "b9ced91dd7e4e4e9d3f48c7c1354116e4c8c41bc3144d76549b86ef5d49ee81f",
    ("k1", "simulate"):
        "82d831406ae06ee023590714bae1eb795d9a02df7f63a2db160254348996e675",
    ("k1", "classify"):
        "82d831406ae06ee023590714bae1eb795d9a02df7f63a2db160254348996e675",
    ("k1", "verify"):
        "82d831406ae06ee023590714bae1eb795d9a02df7f63a2db160254348996e675",
    ("k1", "sweep"):
        "82d831406ae06ee023590714bae1eb795d9a02df7f63a2db160254348996e675",
    ("probe_base", "simulate"):
        "f60a9bf7bf37935a92fbf689b42894c0483d7c7faecc0960f551d66a79694ae4",
    ("probe_base", "classify"):
        "6554f26ca260c6d068e5ebaeb6c575eca0523e008d9c7d311c03feaa35eddcb8",
    ("probe_base", "verify"):
        "fbf04f68afb65e71e97df345c5bca67551fe47fb679af9162842f423ffcd6166",
    ("probe_base", "sweep"):
        "97ab6a0267fed29248423560a1d48a7e52a43b1752f37b6c4c3741451b09183c",
    ("rank_one", "simulate"):
        "f60a9bf7bf37935a92fbf689b42894c0483d7c7faecc0960f551d66a79694ae4",
    ("rank_one", "classify"):
        "6554f26ca260c6d068e5ebaeb6c575eca0523e008d9c7d311c03feaa35eddcb8",
    ("rank_one", "verify"):
        "fbf04f68afb65e71e97df345c5bca67551fe47fb679af9162842f423ffcd6166",
    ("rank_one", "sweep"):
        "b9ced91dd7e4e4e9d3f48c7c1354116e4c8c41bc3144d76549b86ef5d49ee81f",
    ("straddle", "simulate"):
        "200e738325d2a4d499128c39a45edaf4ee096e956af2568253c07bdca9b2d193",
    ("straddle", "classify"):
        "6554f26ca260c6d068e5ebaeb6c575eca0523e008d9c7d311c03feaa35eddcb8",
    ("straddle", "verify"):
        "fbf04f68afb65e71e97df345c5bca67551fe47fb679af9162842f423ffcd6166",
    ("straddle", "sweep"):
        "55ddbc0ee76924bb0cb427d6a8f3f785c3a26540962825cc73f9984ea250567e",
    ("sweep", "simulate"):
        "200e738325d2a4d499128c39a45edaf4ee096e956af2568253c07bdca9b2d193",
    ("sweep", "classify"):
        "6554f26ca260c6d068e5ebaeb6c575eca0523e008d9c7d311c03feaa35eddcb8",
    ("sweep", "verify"):
        "fbf04f68afb65e71e97df345c5bca67551fe47fb679af9162842f423ffcd6166",
    ("sweep", "sweep"):
        "f98f4f0cd9ee23d6b06ae115f4ad44fe79be4370209399b168a0f168fc290a7d",
    ("tricho", "simulate"):
        "200e738325d2a4d499128c39a45edaf4ee096e956af2568253c07bdca9b2d193",
    ("tricho", "classify"):  # perron: r=1, the closed form's root, not power iteration's
        "8c25536a42f5a71b473f02d7e95a3ea3cd6e10c76cb7e0ac867de7bcf908b135",
    ("tricho", "verify"):
        "f7003c2f1fcb86c629b532c3f25c90cdd5bb29d22a84cdc1f924222e5b41ef5e",
    ("tricho", "sweep"):
        "b9ced91dd7e4e4e9d3f48c7c1354116e4c8c41bc3144d76549b86ef5d49ee81f",
    ("unbounded", "simulate"):
        "ed98df2b601b7b7e1234a80e04d67552c47f3bf078ca4b1a9c6b8c565d072e9d",
    ("unbounded", "classify"):
        "17b3341484a78133243ffc290b16a0c65d0cec797cd4b5c81a22ffe1ad244ccd",
    ("unbounded", "verify"):
        "ccaa90a4ad4cd958bb775102c1497d68179b810c38e7922d9026698344d535d0",
    ("unbounded", "sweep"):
        "b9ced91dd7e4e4e9d3f48c7c1354116e4c8c41bc3144d76549b86ef5d49ee81f",
    ("wrong_expect", "simulate"):
        "f60a9bf7bf37935a92fbf689b42894c0483d7c7faecc0960f551d66a79694ae4",
    ("wrong_expect", "classify"):
        "6554f26ca260c6d068e5ebaeb6c575eca0523e008d9c7d311c03feaa35eddcb8",
    ("wrong_expect", "verify"):  # an expect override runs no witness
        "cc5a1ae61c5826d44b5692bd6e48236c4510dcba9eb8731e964b1cf656d2e5a7",
    ("wrong_expect", "sweep"):
        "b9ced91dd7e4e4e9d3f48c7c1354116e4c8c41bc3144d76549b86ef5d49ee81f",
}


def run_digest(tmp_path, conf_text, command):
    """sha256 of the exit code, stdout, stderr and written files of one run."""
    conf = tmp_path / "conf.yaml"
    conf.write_text(conf_text)
    argv = [command, "--config", str(conf)] + FLAGS
    if command != "classify":
        argv += ["--out", str(tmp_path / "out")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256(f"exit {code}\n".encode())
    for text in (out.getvalue(), err.getvalue()):
        digest.update(text.replace(str(tmp_path), "<tmp>").encode() + b"\0")
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and path != conf:
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("command", ["simulate", "classify", "verify", "sweep"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_recorded_digest(tmp_path, name, command):
    assert run_digest(tmp_path, CONFIGS[name], command) == DIGESTS[name, command]
