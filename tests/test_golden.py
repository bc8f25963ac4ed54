"""Byte gate for the command line: every command's stdout and exit code.

Each command runs in process in both output formats; the sha256 of its
stdout and its exit code must equal the pinned values.  For the 31 commands
perfbench/golden.json also covers, the records digests equal its values,
taken from subprocesses.  Change a pinned value only when an output is
meant to change.
"""

import contextlib
import hashlib
import io

import pytest

from thetasing import cli


def _commands():
    cmds = []
    for command in ("open-class", "compactified-class", "taut-projection", "ring-info"):
        cmds += [(f"{command}.g{g}", ["--command", command, "--genus", str(g)])
                 for g in range(1, 6)]
    cmds += [(f"ring-info-open.g{g}", ["--command", "ring-info", "--open", "--genus", str(g)])
             for g in range(1, 6)]
    cmds += [(f"product-taut.g{g}", ["--command", "product-taut", "--genus", str(g)])
             for g in range(3, 6)]
    cmds += [
        ("ij-taut.g5", ["--command", "ij-taut"]),
        ("verify-counts.g3", ["--command", "verify-counts", "--genus", "3"]),
        ("verify-identities.g2", ["--command", "verify-identities", "--genus", "2"]),
        ("verify-counts.g5-2000",
         ["--command", "verify-counts", "--genus", "5", "--samples", "2000"]),
    ]
    return cmds


COMMANDS = dict(_commands())

# (command, format) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("open-class.g1", "text"): (0, "e9fc47535318aaaff75ec90baf4c89580c7a9fb7342aa73c6d798e70aeb1505b"),
    ("open-class.g1", "records"): (0, "d8a7af5a06951b084fffbdffe0227a96eba097c7d06ebfea42146757a5423929"),
    ("open-class.g2", "text"): (0, "dae9b639cb9a59412f74bb647f1019f80e4e12f729fa743dd5f9f557262a2a85"),
    ("open-class.g2", "records"): (0, "4879924b1a18c20ae31b3017270d17f7cbaec6cc4efeea8edb4bcfe032ce2e2b"),
    ("open-class.g3", "text"): (0, "2e3b44935addef70a2aa17b85285d00792c02522d9218c7bcf69951ce99cd25a"),
    ("open-class.g3", "records"): (0, "584328970b7fd138b8dca5a81d754a65be1a203bf9f816a6e761c4960dfb4009"),
    ("open-class.g4", "text"): (0, "d7d091a86772d09ae30c0d4f017bbd350284d4066af1f10c25f51bceddd06727"),
    ("open-class.g4", "records"): (0, "766717d1bd4233457af67d84b6de7db689080f84108ce2255b5ebd7ffc31d13f"),
    ("open-class.g5", "text"): (0, "a7a9b225f079071888a3ba7f1055e7dd081dd2c1c3d0555afc543bc9e57bae1e"),
    ("open-class.g5", "records"): (0, "243e905c0cc287b68e80107b903a8a59d3a3efda964cbd542dae477d35f75ccd"),
    ("compactified-class.g1", "text"): (0, "e85fa07c210342b4e5ae9666dc04d13e32f02fb0dc04aa35f1f3b35f8efc8319"),
    ("compactified-class.g1", "records"): (0, "7a1c0f7803da3ce5c9c6d4322e47da7bf4bb2c398409fcd128843a7841b25c92"),
    ("compactified-class.g2", "text"): (0, "07d89904821d5b26937df3f77c2ceb32ee56edccb0fd3ad38242310f4fdad283"),
    ("compactified-class.g2", "records"): (0, "bfb0db819948d719b8ae54267228f883919119666ab661f4a7efb33c7538d996"),
    ("compactified-class.g3", "text"): (0, "487430998f0da39b644204e85da02c80276f63024ded04deb63575add28ae519"),
    ("compactified-class.g3", "records"): (0, "0b97a4c2ad8ea33b4d8a0ec3ed591d62949e4cdbbf348b8521fdad501b0b96ca"),
    ("compactified-class.g4", "text"): (0, "49c4598ab9e5a19d05ecad3d64737d2bcbbedc7a2488550575cd93058b8f198c"),
    ("compactified-class.g4", "records"): (0, "8eca035e0f62ab456935c56646c9d78f4c4331a390b955da85386dee8c1c6d06"),
    ("compactified-class.g5", "text"): (0, "e949588f6cf45a0293fbade76ef024a190924e16f32f4b79a6a8e49376394db4"),
    ("compactified-class.g5", "records"): (0, "67f630393685729f5c7ff34327237f59f7aa31b2fb12411660bc827b4ca15810"),
    ("taut-projection.g1", "text"): (0, "e9fc47535318aaaff75ec90baf4c89580c7a9fb7342aa73c6d798e70aeb1505b"),
    ("taut-projection.g1", "records"): (0, "d8a7af5a06951b084fffbdffe0227a96eba097c7d06ebfea42146757a5423929"),
    ("taut-projection.g2", "text"): (0, "dae9b639cb9a59412f74bb647f1019f80e4e12f729fa743dd5f9f557262a2a85"),
    ("taut-projection.g2", "records"): (0, "4879924b1a18c20ae31b3017270d17f7cbaec6cc4efeea8edb4bcfe032ce2e2b"),
    ("taut-projection.g3", "text"): (0, "9fb868a02a3fb7b693fb4f913e0ad4c419c9d9ddc126a60918e3ece31c9f6e45"),
    ("taut-projection.g3", "records"): (0, "1578061c41eb9425ce6c64b40aae3b55e1ad9aec3d992bba6451d559395daf6d"),
    ("taut-projection.g4", "text"): (0, "d7d091a86772d09ae30c0d4f017bbd350284d4066af1f10c25f51bceddd06727"),
    ("taut-projection.g4", "records"): (0, "766717d1bd4233457af67d84b6de7db689080f84108ce2255b5ebd7ffc31d13f"),
    ("taut-projection.g5", "text"): (0, "b9a00df6831451172347b71c293ee0088cfb7dd962d9581ad8cf3925799088ce"),
    ("taut-projection.g5", "records"): (0, "a15d014e63c7e370a9d01cf75494b14c64e50d98e39c301521988a310b2aa122"),
    ("ring-info.g1", "text"): (0, "372bff567f844fbc8975c090330cc050f621b2b0410306e14e0e86d84edb75c6"),
    ("ring-info.g1", "records"): (0, "372bff567f844fbc8975c090330cc050f621b2b0410306e14e0e86d84edb75c6"),
    ("ring-info.g2", "text"): (0, "5f09420a992a002bc373e44ccd2b76cd7b2a49f7edc90bb3686fa19c72b70e5a"),
    ("ring-info.g2", "records"): (0, "5f09420a992a002bc373e44ccd2b76cd7b2a49f7edc90bb3686fa19c72b70e5a"),
    ("ring-info.g3", "text"): (0, "f2f401b678b5e5144bbdbf79a3962becda8f1cb4f52965ce0ab9a61f5ccaa145"),
    ("ring-info.g3", "records"): (0, "f2f401b678b5e5144bbdbf79a3962becda8f1cb4f52965ce0ab9a61f5ccaa145"),
    ("ring-info.g4", "text"): (0, "159120d5de2ed5649515da661e0cb522b68936f2cba862509d394c39ed4f6b61"),
    ("ring-info.g4", "records"): (0, "159120d5de2ed5649515da661e0cb522b68936f2cba862509d394c39ed4f6b61"),
    ("ring-info.g5", "text"): (0, "7a52b88b2a5fda4caf4954212ce8c1eacbb356e14bc44cd094bd59d4400c58ee"),
    ("ring-info.g5", "records"): (0, "7a52b88b2a5fda4caf4954212ce8c1eacbb356e14bc44cd094bd59d4400c58ee"),
    ("ring-info-open.g1", "text"): (0, "681a8bcdbfaf1f41f6fd58265ab7dd2d1f7e46f8f9174810c7c5d7306470c55e"),
    ("ring-info-open.g1", "records"): (0, "681a8bcdbfaf1f41f6fd58265ab7dd2d1f7e46f8f9174810c7c5d7306470c55e"),
    ("ring-info-open.g2", "text"): (0, "5bc50e7a9e0bc0414f18e40f9a4a2fae06c4db0953af3a4be1dee522cd717c75"),
    ("ring-info-open.g2", "records"): (0, "5bc50e7a9e0bc0414f18e40f9a4a2fae06c4db0953af3a4be1dee522cd717c75"),
    ("ring-info-open.g3", "text"): (0, "19b77b882a49b011a8407cd01915931de7191e847e016b9470bfca69656ab293"),
    ("ring-info-open.g3", "records"): (0, "19b77b882a49b011a8407cd01915931de7191e847e016b9470bfca69656ab293"),
    ("ring-info-open.g4", "text"): (0, "669cc5b7bd110cecdc0b8721dd6a98a77a91f83962ef6459ee371f16e3648510"),
    ("ring-info-open.g4", "records"): (0, "669cc5b7bd110cecdc0b8721dd6a98a77a91f83962ef6459ee371f16e3648510"),
    ("ring-info-open.g5", "text"): (0, "a0d6c5d4ced747ecfaa02c7049e1860b3968c3750503bf6dd755f6f5c87569a3"),
    ("ring-info-open.g5", "records"): (0, "a0d6c5d4ced747ecfaa02c7049e1860b3968c3750503bf6dd755f6f5c87569a3"),
    ("product-taut.g3", "text"): (0, "e1d8ce97d2b9d457eaeb1adf0eb612e6dbbe55a2cc28a751a692dcc425c7c4ce"),
    ("product-taut.g3", "records"): (0, "3ba1a4cdf0fe69e508f3960f81fb5ce38bb1d89356189f4b824d4e13fe96a47d"),
    ("product-taut.g4", "text"): (0, "a4b37c64ea4ecf6ecdea9b7aa5418bd3f63e87c1ae04165a41c8fa976d6e652e"),
    ("product-taut.g4", "records"): (0, "e6342e17b7a8bc4de94294cbe1b595a29404454274dd4dd9e05fdee82fde037e"),
    ("product-taut.g5", "text"): (0, "5f21070de3a872069eb599c8b94f1e532ed5a8ed959c9d8b434a2e8a99e8656d"),
    ("product-taut.g5", "records"): (0, "2001d9a80af880f665fd49ae529c681fac44285711d9212d71e471bdc28eeaef"),
    ("ij-taut.g5", "text"): (0, "145d857ead3649fe1a5ac64cd756e618d8b1e48f2094e76923f36c7e02e74dc8"),
    ("ij-taut.g5", "records"): (0, "bdeb3c387c11e47c451bc2754a0b44a2328fb265e5990000dec06fcc596c64f9"),
    ("verify-counts.g3", "text"): (0, "406db4593c1a3c8a383e1c01a4651d4f593b22519ac56cd98f1819e2ee9d7517"),
    ("verify-counts.g3", "records"): (0, "406db4593c1a3c8a383e1c01a4651d4f593b22519ac56cd98f1819e2ee9d7517"),
    ("verify-identities.g2", "text"): (0, "af36adfc7d7d55dd75cdae5b6cb88f8a55e524912177eef5b524785c68a34983"),
    ("verify-identities.g2", "records"): (0, "af36adfc7d7d55dd75cdae5b6cb88f8a55e524912177eef5b524785c68a34983"),
    ("verify-counts.g5-2000", "text"): (0, "dc3ceec45f3e307ec98ecdb354b489aefb113e0a6dc89eda2f545c878aa34a48"),
    ("verify-counts.g5-2000", "records"): (0, "dc3ceec45f3e307ec98ecdb354b489aefb113e0a6dc89eda2f545c878aa34a48"),
}


def test_golden_covers_every_command():
    assert set(GOLDEN) == {(name, fmt) for name in COMMANDS for fmt in ("text", "records")}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN))
def test_cli_output_is_pinned(name, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(COMMANDS[name] + ["--format", fmt])
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (code, digest) == GOLDEN[(name, fmt)]
