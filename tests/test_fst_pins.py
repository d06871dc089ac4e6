"""What the space model and the blob format charge, pinned.

Every memory column of Figures 3.4-3.7 and 4.x is ``size_bits()``, and
every filter persisted beside an SSTable is an ``FST3`` / ``SRF2`` blob.
A change to how the trie is held in memory must leave both identical:
this test fixes the modelled bits and the sha256 of every blob over
three seeded key sets (u64, email, and short keys with a prefix key and
0x00 bytes) at dense levels 0, 1 and 100.
"""

import hashlib

import pytest

from repro.fst import FST, fst_to_bytes
from repro.surf import surf_base, surf_hash, surf_mixed, surf_real
from repro.workloads import email_keys, random_u64_keys

DENSE_LEVELS = (0, 1, 100)

SURFS = {
    "surf_base": surf_base,
    "surf_hash": lambda keys, **kw: surf_hash(keys, hash_bits=4, **kw),
    "surf_real": lambda keys, **kw: surf_real(keys, real_bits=4, **kw),
    "surf_mixed": lambda keys, **kw: surf_mixed(keys, hash_bits=2, real_bits=2, **kw),
}


def prefix_keys() -> list[bytes]:
    """Short keys where one stored key is a prefix of others (a
    prefix-key label at several levels) and 0x00 / 0xFF bytes occur."""
    keys = {b"a", b"ab", b"ab\x00", b"ab\x00c", b"abc", b"\x00", b"\x00\x00",
            b"\x00\x01", b"b", b"b\xff", b"bz\xff\x00", b"c\x00\x00"}
    keys.update(bytes([i, j]) for i in range(0x20, 0x80, 3) for j in range(0, 256, 17))
    return sorted(keys)


KEY_SETS = {
    "u64": lambda: sorted(random_u64_keys(2_000, seed=46)),
    "email": lambda: sorted(email_keys(1_000, seed=46)),
    "prefix": prefix_keys,
}


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def measure(keys: list[bytes], dense_levels: int) -> dict[str, tuple[int, str]]:
    """``{structure: (size_bits(), sha256 of its blob)}``."""
    out = {}
    keys_only = FST(keys, dense_levels=dense_levels)
    out["fst_keys"] = (keys_only.size_bits(), sha(fst_to_bytes(keys_only)))
    valued = FST(keys, [7 * i + 1 for i in range(len(keys))], dense_levels=dense_levels)
    out["fst_values"] = (valued.size_bits(64), sha(fst_to_bytes(valued)))
    # Figure 3.6's build arguments change only the derived tables.
    ablated = FST(keys, dense_levels=dense_levels, sparse_rank_block=128, select_sample=16)
    out["fst_ablated"] = (ablated.size_bits(), sha(fst_to_bytes(ablated)))
    for name, make in SURFS.items():
        surf = make(keys, dense_levels=dense_levels)
        out[name] = (surf.size_bits(), sha(surf.to_bytes()))
    return out


#: ``{(key set, dense levels): measure(...)}``, computed before the
#: trie's bit vectors became plain word arrays.
PINS = {
    ('email', 0): {
        'fst_keys': (99784, '5c21b5157a84ee88e729837a513e7e06d3e882849fa03937b9db6038ad3f70e3'),
        'fst_values': (163784, 'c971343d4aae8fda7cb7b0709a68bb4db7d02e4a88438522af94128eb116e263'),
        'fst_ablated': (115880, '5c21b5157a84ee88e729837a513e7e06d3e882849fa03937b9db6038ad3f70e3'),
        'surf_base': (25520, 'd5c733f502ec53ebb39bdf24a7fbe660535ef1c8bd6f499137fdc6f01fb60773'),
        'surf_hash': (29520, 'a13566babd12b37c24553d443cd5ee317db4f8ef8aa9e2740b590fc409321848'),
        'surf_real': (29520, '08f4113de137919f678a43fc19ef48505bccaaf17173b2c9049f39c4ad34043c'),
        'surf_mixed': (29520, '79be58ae0be1c7dccf5e3c1ea11c837b9649c873334c60f15b6490a166be77ab'),
    },
    ('email', 1): {
        'fst_keys': (100600, '980d6a99fefc9bd0b42bf807c506ead0116ae9e62a84ad144150f4082a53cce5'),
        'fst_values': (164600, '8697f342bd9e908f78f4e8daa4b33c8df7f3844594f85dafa298d5ba0d721b00'),
        'fst_ablated': (116696, '980d6a99fefc9bd0b42bf807c506ead0116ae9e62a84ad144150f4082a53cce5'),
        'surf_base': (26336, '6b0cf757ad560fdb75f8697d4b792eb95e76a0b112a9f8ba746b1cfaa972d6e2'),
        'surf_hash': (30336, '21c909afbdb65dc6208c42b47404f5e923d8e2bfbbbda487121602a1b385a796'),
        'surf_real': (30336, '3481764f92be91d677385d1ffddf0968f73aead00fc8986b880856a45931d7f3'),
        'surf_mixed': (30336, '3fb86c37efa8f20a79f20ee5745b8ea782bd744341d37a4517bc189f8e580fca'),
    },
    ('email', 100): {
        'fst_keys': (6440736, '1ebfc5baf5bdde3d38b2a8ef8817a4e792bb3ac45b38f7cd6b33ab81e0ffeab0'),
        'fst_values': (6504736, '99e1d9bb83ddfc9dcbee7a01f9df358999aea3f94e5d081c9da69c6f045e251c'),
        'fst_ablated': (6440736, '1ebfc5baf5bdde3d38b2a8ef8817a4e792bb3ac45b38f7cd6b33ab81e0ffeab0'),
        'surf_base': (1101216, '5332834d59bd3db6c828473d1229beb651b38897dd299e886440e7c434b951fa'),
        'surf_hash': (1105216, '3d9aa0408af140f2c62aba5081f05907a0037ab93a4ba916cc99fa71369824fa'),
        'surf_real': (1105216, '6f79e5466291297377fb9091dfe1de7317276b54391d27f3714d773d257754b0'),
        'surf_mixed': (1105216, '87cf526d112342249d7f42a10b17d45652921db7ab833035dc8a3847f7e4b140'),
    },
    ('prefix', 0): {
        'fst_keys': (5880, '1329a4ec0375ffc80549f42ba78d2222d94915ba6385c5f9a2711ba516dac02c'),
        'fst_values': (39352, '868dc348de6b81962560c42ab8de5fc2848e2c5489495f83a60b32c27bd05845'),
        'fst_ablated': (6136, '1329a4ec0375ffc80549f42ba78d2222d94915ba6385c5f9a2711ba516dac02c'),
        'surf_base': (5848, '6421763d621df22e62f7825cc49739e886ce35f48ea1980ed306ba13a083907d'),
        'surf_hash': (7940, '65f5e737a118488cc0e28723dd131d7eee8115e38670b5b0e20fa4fe263394d9'),
        'surf_real': (7940, '9e5d12056d6de306958c64efc0ea92946d3dcc09b3c81999cd854afc8f4571d1'),
        'surf_mixed': (7940, '183b3d8b50db63fdaeeda53766bba472889a872bdbfae90efd3ad88844f9f356'),
    },
    ('prefix', 1): {
        'fst_keys': (6464, 'df4dc8c17cae53045f32fbad619ef65c6e02f81ae7129c41a9c362a37947b642'),
        'fst_values': (39936, 'd3f25c6d5061a322ea9b0dd367b976b00b66cd4c94241b1bd66d0fef9b71b210'),
        'fst_ablated': (6720, 'df4dc8c17cae53045f32fbad619ef65c6e02f81ae7129c41a9c362a37947b642'),
        'surf_base': (6432, '56946808bf267c9b4dd65cb18895b2f8c583eafd46f73711589e1335211a79cc'),
        'surf_hash': (8524, 'a9edd62ccf2137afbf0ab89139c102f8a416d498e5391874c9e84e8c32ae5f23'),
        'surf_real': (8524, '44f97591a07918dcf91c04a59b8f1b29939f3c1e7671154905f248e7c3699ce0'),
        'surf_mixed': (8524, 'c88d38bd953013826dc8ccf35fd044a4253113d9e3f463b49cb8269c8154d5b1'),
    },
    ('prefix', 100): {
        'fst_keys': (31584, '1bd711bd66f2ece357ea4f1263110ef45ccf7852ac1b4880d10df7d584c1408b'),
        'fst_values': (65056, 'e2ece51331aa71c2158b1c2359100e223709adc350bbdf6fa429278916f25d68'),
        'fst_ablated': (31584, '1bd711bd66f2ece357ea4f1263110ef45ccf7852ac1b4880d10df7d584c1408b'),
        'surf_base': (28512, 'a5d01ee18c502271537d464582936b683af32d25e9a28fa8876d46f4bdbfa675'),
        'surf_hash': (30604, 'f01e569aaf2b276494243bafac39568fd1677fe8df8bfad0bd2498bfef0f86c0'),
        'surf_real': (30604, '8195d440b233a720e456e7449084822dfb7a663e38cef634d6cfb7da8dbda0cf'),
        'surf_mixed': (30604, '6721d50fad5d6ebdf373b1b6b943b8a390af3d2d573f9f36de939f83e5a5479c'),
    },
    ('u64', 0): {
        'fst_keys': (151168, '881b28cab6784e3e31ec6e2d07dc681a90c755fb4a0fb306da44a38db68907e7'),
        'fst_values': (279168, '16957305b82f5469d9ca471e92c15972a98182135bfcbcd07498436713cc9831'),
        'fst_ablated': (174880, '881b28cab6784e3e31ec6e2d07dc681a90c755fb4a0fb306da44a38db68907e7'),
        'surf_base': (23544, '19af25ff4ac9f76eea4118b2a5885507f416421565ea5e5e11f75c6920a386ec'),
        'surf_hash': (31544, '700f32d718dc8a1804db03db24d021fed41c4cc099d9479eb312b27f2af014e1'),
        'surf_real': (31544, '4430c0706514537eeb57cbde5668e014ecd6bd3756952d4d9d174298a2d0a62b'),
        'surf_mixed': (31544, 'a6263dfff5d6bf273ae5761c4877d00f1e754b512723a6385cffbd7b3eace2a7'),
    },
    ('u64', 1): {
        'fst_keys': (149440, '3d5d84433e549aeb702d094a972e3f728cf76c79713b41d1206dd861dd7e0f23'),
        'fst_values': (277440, '2a227194b0e52ad224b0cfa7ec1e862827c60131403b93cc5f0938c10dd9fc1b'),
        'fst_ablated': (173024, '3d5d84433e549aeb702d094a972e3f728cf76c79713b41d1206dd861dd7e0f23'),
        'surf_base': (21752, 'fbd34a0080b39ca7077bf64e79a6547ccefe973a62e090eb5972416fa81d7782'),
        'surf_hash': (29752, '26f456e58aba0ade6c08e826c1265d16cb6ccb8c6266862856186ab062be7bc7'),
        'surf_real': (29752, '86ab70f0f563e6555e868024291125ebe2ceb0a06643ea78f0680fb8b3317d66'),
        'surf_mixed': (29752, '1ef797ba5619b6fece3e3c5b52858c3448e0d16c415ce8d11812566fee3021d2'),
    },
    ('u64', 100): {
        'fst_keys': (9407232, '35fd43b5d996d9698a6d068fd08a1a355e5284b01d4e58b1b5d74b645e4b6a8a'),
        'fst_values': (9535232, '02aeab52f09e32f2c9f36d866362f06e8c099b8d120b4a0ad9749840c7bcc04e'),
        'fst_ablated': (9407232, '35fd43b5d996d9698a6d068fd08a1a355e5284b01d4e58b1b5d74b645e4b6a8a'),
        'surf_base': (221664, '9848790127c1e5f8f350e433026a68657d1189b9abe65b57e2e24915cf874fd5'),
        'surf_hash': (229664, '98da3db8f9e3ce41e2f58f7b034c9c4913d136fb3d3e552bd563aa3fde4200ba'),
        'surf_real': (229664, '3530abbaef53742e4e990f20459c193e9ba5d6441e71da3377db5907bfa0aaf2'),
        'surf_mixed': (229664, '24e458257691bd42049a52767e37d42e104c66ca35ea03c4eef6aeb6f30d9880'),
    },
}


@pytest.mark.parametrize("dense_levels", DENSE_LEVELS)
@pytest.mark.parametrize("key_set", sorted(KEY_SETS))
def test_modelled_bits_and_blob_bytes_are_pinned(key_set, dense_levels):
    got = measure(KEY_SETS[key_set](), dense_levels)
    assert got == PINS[key_set, dense_levels]
