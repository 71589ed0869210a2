"""Pinned transcripts: refactors of the round loop must keep them byte-identical.

Each case runs one (environment, learner, setting) triple on seeds 0, 1 and 2
with ``record="full"`` and compares the sha256 of ``helpers.to_jsonl``
(one row per round, written from the round's ``Feedback``) and the
mistake count with the pinned values.  A change to a random stream
must re-pin the table on purpose: ``python tests/test_golden.py`` prints it.

Full runs skip the learner on rounds where it is settled on the target, as
counts runs do, so the hashes pin skipped rounds too.
``test_every_environment_with_a_target_skips`` keeps it that way: each
environment with a declared target, the adaptive appE included, has a case
and seed that skips, so a change that stops the skip fails there and not
silently.
"""

import hashlib

import pytest

from stratgame.environments import make_environment
from stratgame.learners import make_learner
from stratgame.protocol import Setting, run_online

from helpers import to_jsonl

SEEDS = (0, 1, 2)

# (environment name, make_environment kwargs, T)
ENVIRONMENTS = {
    "stream-star": ("random-realizable", {"n": 8, "stream_space": "star"}, 120),
    "stream-basis": ("random-realizable", {"n": 8, "stream_space": "scaled-basis"}, 120),
    "stream-sphere": ("random-realizable",
                      {"n": 6, "stream_space": "sphere-origin"}, 120),
    "appG": ("appG", {"n": 6, "eps": 0.05, "target": 5}, 300),
    "appI": ("appI", {"n": 6, "eps": 0.05, "target": 5}, 300),
    "appJ": ("appJ", {"n": 6, "eps": 0.02, "target": 5}, 300),
    "appK": ("appK", {"n": 6, "eps": 0.05, "target": 5}, 300),
    "star-ex42": ("star-ex42", {"n": 6}, 40),
    "appE": ("appE", {"n": 6, "samples": 200}, 200),
}

# every base learner in the setting it requires; wrappers with small budgets
BALL_LEARNERS = (("halving", "x-delta"), ("mwmr", "x-delta-after"),
                 ("random-union", "x-delta-after"), ("seq-elim", "none"))
WRAPPERS = (("survivor:mwmr", "x-delta-after"), ("boost:random-union", "x-delta-after"))
CASES = (
    [("stream-star", l, s) for l, s in BALL_LEARNERS]
    + [("stream-basis", l, s) for l, s in BALL_LEARNERS]
    + [("stream-sphere", l, s) for l, s in BALL_LEARNERS[:3]]
    + [("appG", l, s) for l, s in BALL_LEARNERS + WRAPPERS]
    + [("appI", "random-union", "x-delta-after"),
       ("appI", "boost:random-union", "x-delta-after")]
    + [("appJ", l, s) for l, s in BALL_LEARNERS + WRAPPERS]
    + [("appK", "seq-elim", "none"), ("appK", "seq-elim", "delta-only")]
    + [("star-ex42", "seq-elim", "none"), ("star-ex42", "seq-elim", "x-delta-after"),
       ("star-ex42", "survivor:seq-elim", "delta-only")]
    + [("appE", "mwmr", "x-delta-after"), ("appE", "random-union", "x-delta-after"),
       ("appE", "seq-elim", "none")]
    # learners that need x only after the round, given it before choosing
    + [("stream-star", "mwmr", "x-delta"), ("stream-star", "random-union", "x-delta"),
       ("appG", "random-union", "x-delta"), ("appJ", "mwmr", "x-delta")]
)

_envs: dict = {}


def _env(env_key: str):
    env = _envs.get(env_key)
    if env is None:
        name, kwargs, _ = ENVIRONMENTS[env_key]
        env = _envs[env_key] = make_environment(name, **kwargs)
    return env


def _run(env_key: str, learner_name: str, setting: str, seed: int,
         skips: list | None = None) -> tuple:
    env, T = _env(env_key), ENVIRONMENTS[env_key][2]
    learner = make_learner(learner_name, n=len(env.hclass), epsilon=0.1, delta=0.2,
                           base_rounds=40)
    if skips is not None:
        skip = learner.skip
        learner.skip = lambda m: skips.append(m) or skip(m)
    tr = run_online(env.source_for_run(seed, T), learner, Setting.from_name(setting),
                    T, seed, record="full")
    return tr.mistakes, hashlib.sha256(to_jsonl(tr).encode()).hexdigest()


GOLDEN = {
    ('stream-star', 'halving', 'x-delta'): {
        0: (1, "be6daff480da45b35864e44561ac510eb044ed71988d38924b71cb830bc4075e"),
        1: (1, "ef8864d848dba77cf3722f17633ef666046c2565511eb3ba6bc116815285a3c0"),
        2: (1, "6107377f35c6767054cdbc7af3c70b838597e240daaf9977bf3135807d68d1e4"),
    },
    ('stream-star', 'mwmr', 'x-delta-after'): {
        0: (1, "c862af62da2fc050ff356cf6586e11159e0a986b252677a6413e05fc86a617fb"),
        1: (1, "2caa2510f10d78bc88749fedb6c655005adb6a0b1e3dee8db39f2c8adec1eae5"),
        2: (3, "485714cfcaf635c15cfa9f750bcda5b87b8642fe1c6cf9ebd0a33fcd224e2078"),
    },
    ('stream-star', 'random-union', 'x-delta-after'): {
        0: (1, "7804c63b7e6604273ea938ff10ee217f5261997845b35fceacb56914baac1341"),
        1: (3, "a58aa5fe1cbb27698a57428aa4fd8362171d71894c8f988eaea41d72f63e4e87"),
        2: (4, "e3fa9a1fb06176573d8cea50ab335d6d763c59a05aeb1138d73c61f02c416ea2"),
    },
    ('stream-star', 'seq-elim', 'none'): {
        0: (7, "ea06c5a2372334d6b152eb3a9b2faee5efd07ebc1a1cb5253ab7c6c48aa54317"),
        1: (7, "c1e0369db7d50375b982cb488d74e62db61ba582a285e9ea3edc44320d622468"),
        2: (7, "d34cb333931a8c6ff52f17ce749cdbf89078d7bf8569e083da92dae65c32fa5e"),
    },
    ('stream-basis', 'halving', 'x-delta'): {
        0: (1, "206ba7178f415dfdedbe6afc72dd1b9c7f397123b13c24e37ae3e870dbabd77b"),
        1: (1, "e7b91e787d3d086e3c5d8c929b803bbd9540a86988ca66d8ca65cdb40673c194"),
        2: (1, "5fc8e425366581b8baa1c5b19b45e864fd25fdb4dd7db68fdbd80bb8c2474fc6"),
    },
    ('stream-basis', 'mwmr', 'x-delta-after'): {
        0: (1, "4617ce8729131668763be6329a2f8b5d0981be65307c087f9aad9d3562488ed2"),
        1: (3, "0249aba5a5d1c8c4c45f0ab4aa7f4175f6c4bb28bb9037ea7c817e2ce6667225"),
        2: (2, "9d51ef829ee2393de6f3b8c29e22fbd2c2b2cf7413a59840b0665c621ff53e9e"),
    },
    ('stream-basis', 'random-union', 'x-delta-after'): {
        0: (1, "7647243070be13987596f3a06707a7612a6a84c738be029035e2ce0a6cc68a6b"),
        1: (4, "24345b249ca0f3021535a6ebb506d45e8bcf072cd2a5ea3cefb304edff9f8d79"),
        2: (3, "b4bd16d00802df57a73dbdbff4d70072ed325163ac5715ac9513fa93f4354afb"),
    },
    ('stream-basis', 'seq-elim', 'none'): {
        0: (7, "f1c3ab5394c6d10b91e81e17a2d0c8f70ffba8149fec01028197cf2d0e0b0eee"),
        1: (7, "b0b01e4b0c1145946f9c66b3d163da89b7cb32dc91859a9558136e9e8aa9b895"),
        2: (7, "326caebe1db1cff9e27c234e1f0430b444f675e327e110fa8f836e06d4e6f392"),
    },
    ('stream-sphere', 'halving', 'x-delta'): {
        0: (1, "c439598f7432740f4cc05c797589f21009f39045f81a009516d5b6700090e6d0"),
        1: (1, "4bed99617a7fa6b35783577915904ac7f017ab68b992eded71f7dbae539c72df"),
        2: (1, "e2dba4a6e4af4ed7b9a27a357882d8dd30cd6163ee6bb56d5d944c06385906b1"),
    },
    ('stream-sphere', 'mwmr', 'x-delta-after'): {
        0: (1, "1615801cead117041f9abb9d6b6a7546d5bd56ce21ef2aca2931e32dc3e22e8e"),
        1: (1, "dfb4a13b5086ae69a508594351b7ac19bd488b11244359bc2b1b5cd1aa8e2b6c"),
        2: (2, "f3396935d2a1af5ab92438a645968ad34525b25e132a088d2dede320f57d590d"),
    },
    ('stream-sphere', 'random-union', 'x-delta-after'): {
        0: (2, "87f8041fed956c8f8d180f95feabbcd1c8438c648c6c090d9e35e51bd4869b81"),
        1: (1, "2dbfff0d217ba248254e4266a5a9d29a9390a6c1f61bfc31ffbc59a78e9373f8"),
        2: (2, "c0c8be10e676d20de690a65ac2a5b4347b4533945c94dc6a555db5c8982e4669"),
    },
    ('appG', 'halving', 'x-delta'): {
        0: (0, "15bbb14a080b480c49f2dd9a844dc6ad5929beccafb40ed5e11e18ed1865133e"),
        1: (0, "c95a47f2b3fd79a02c12d0bd2390b02ad924d271c0a47c0904b6714dc0c51c83"),
        2: (0, "e10e8a396e53a0b126a2d31931ec21f40fa60dd9aec264e8558a956551f1a8ee"),
    },
    ('appG', 'mwmr', 'x-delta-after'): {
        0: (5, "caf8b9f1e2e3d8abf130cde5ad94aa31d8262387c1b0b9710ce0301f0512f286"),
        1: (5, "ba0cad95e8baaa9411b6644c02948a51183cb59dead6fcb49bb85e72dfd7eb71"),
        2: (5, "41ad31780eccc1830f796b6ae23c963e92d2dee936bdb8721718f2584634839a"),
    },
    ('appG', 'random-union', 'x-delta-after'): {
        0: (5, "a6a0e3c4d3c430e84ec3bb675cdd54824a74b8741bf7adfb7febc80d26d4792d"),
        1: (5, "01ffcdcfb71b44020af8e4e594a26f4386a86ca1f0916be63448804407422ad4"),
        2: (5, "d5e8c1fc7e334930e21fc44ec216f3fb4ec5ca3602da4f4f921aea31eb28de0d"),
    },
    ('appG', 'seq-elim', 'none'): {
        0: (5, "691e4b4557dee92de09cc23a99536e05280b4a8d6fff78e26c3504045ea786fb"),
        1: (5, "013423d155f05dcbd3f64732c611c430a0ad6daaac3bfa4959c55dcf17b08824"),
        2: (5, "b50185d2dfba59a3bc471583ad5291252e895e9ec4036f69fe2a07b756f8747f"),
    },
    ('appG', 'survivor:mwmr', 'x-delta-after'): {
        0: (5, "caf8b9f1e2e3d8abf130cde5ad94aa31d8262387c1b0b9710ce0301f0512f286"),
        1: (5, "ba0cad95e8baaa9411b6644c02948a51183cb59dead6fcb49bb85e72dfd7eb71"),
        2: (5, "41ad31780eccc1830f796b6ae23c963e92d2dee936bdb8721718f2584634839a"),
    },
    ('appG', 'boost:random-union', 'x-delta-after'): {
        0: (2, "4dfdad5dca4d7ef711416ad92f24895cfad7e6b1795a4372a34578c6f5d96fc6"),
        1: (9, "b4afc35e800744de6c793587f9ca368fd8a5c415cff86eaa281331028d335cc5"),
        2: (3, "1b9d621b13e7594ba085045d78c61775352e59d3a10e9058d5ca8717b9a201df"),
    },
    ('appI', 'random-union', 'x-delta-after'): {
        0: (2, "f01f651d275c4e43cc7df87666f9f741718a9fb071cef61cc6ab7a196c3c30eb"),
        1: (3, "adef117d932ec3d547084734d8eee44b3f4db91e39d9320d5890a2836a62d847"),
        2: (2, "5bec3e719d93710c143d58d56d8c39b62a44c4404f466b290ff77324143e3ffa"),
    },
    ('appI', 'boost:random-union', 'x-delta-after'): {
        0: (16, "659dcbd23f62506a75a61027e2f35234ef56b1487843876c7f7a41c6babd6522"),
        1: (15, "445753e9781e87fbb2824975b22600cb9de07c37f969b8d78b3d313b192ee1c5"),
        2: (2, "245442dbc1227b82fbb5b1268fc31b50d7a6b5e5facdbad538a6d7c30205a489"),
    },
    ('appJ', 'halving', 'x-delta'): {
        0: (0, "9b196cbb2ba937c16829da74958519996df0d22976a78479a87a883940fd660b"),
        1: (0, "dec1bd21670e6e87a2f8ce7d5f73fc2e7e947d6e26d94e908a63c3d2c2f40c23"),
        2: (0, "fb3d685814c43be0af486f3935856a4918b214df27d086a3318e882b60e8b6ac"),
    },
    ('appJ', 'mwmr', 'x-delta-after'): {
        0: (5, "8b0fe50d96fece4935ec40a971555fdf0ee3603128b9bba8fa27ae547293dec1"),
        1: (5, "5699637c82f8a0acac73ca8478ca9c80d69e7e5708761e076ff5979164ad5080"),
        2: (5, "8af1b4ba34b9a605027bcd11f2978ddc0c808e93d5c729729f0641816f79ed9f"),
    },
    ('appJ', 'random-union', 'x-delta-after'): {
        0: (5, "e60add402005fa5b62d965111b528bd7a91b70f1e50f5532e1fa5394d11c0666"),
        1: (5, "92fdbf53254bd063410724fa5b70ea5c2ff02b4426156e99422b26ac26392364"),
        2: (5, "21502b82a84de6701c8ea4d3c8473bc7422b7c2e391509eb930b001795d99cdc"),
    },
    ('appJ', 'seq-elim', 'none'): {
        0: (5, "e3bb06fb97a90388aebc30b3d8fcaa5a45317ac103ad5f2dbf7a83e81fc7bf24"),
        1: (5, "03f46373c1e9a219a938dfdbe37a4851d6064f0259f8ec3c966db1da6f3c23b0"),
        2: (5, "2ed141f706afae7e837aae02eeafff8b1a83b5d3908801abc99f8bae0d5fa401"),
    },
    ('appJ', 'survivor:mwmr', 'x-delta-after'): {
        0: (5, "8b0fe50d96fece4935ec40a971555fdf0ee3603128b9bba8fa27ae547293dec1"),
        1: (5, "5699637c82f8a0acac73ca8478ca9c80d69e7e5708761e076ff5979164ad5080"),
        2: (5, "8af1b4ba34b9a605027bcd11f2978ddc0c808e93d5c729729f0641816f79ed9f"),
    },
    ('appJ', 'boost:random-union', 'x-delta-after'): {
        0: (12, "8df5e2c0b755dfa202672d459bb45e9fb7dc4011b7179975b1819cdaf1669142"),
        1: (9, "3c0c80979984508b3f5c3bb8f04be5351d6e21a330e2ff9bf57c84e589744b32"),
        2: (9, "d1fc126071331436e0a1738ce9922b4115ea63d858f4800f9273e43496b24ae1"),
    },
    ('appK', 'seq-elim', 'none'): {
        0: (5, "4eaef21722055458bf90c4c24e7a3b9b4bc358dd097cf7eecc28f0f4e0e12fbc"),
        1: (5, "5a38b97b4984da50a0767cde43667ba1ab7dce97a2af1fa21be56b2aa27363df"),
        2: (5, "7ab1af63bfdaabd892d18c93ad229f898e4d1e2fdff42ed79a94ea2f97dd4ce6"),
    },
    ('appK', 'seq-elim', 'delta-only'): {
        0: (5, "9efb1c190ad3949b6118c3e6c985c3158555b0754bd4f012bb403f53f522281d"),
        1: (5, "39e6edc8a9ab2e2edc9eeb36541ef684620783c4cc8ba9794634366a46aa3853"),
        2: (5, "d1cdd8f21624e5d67719709a3f87c2ad4f0125097b6d40b096a9cbf0fe417127"),
    },
    ('star-ex42', 'seq-elim', 'none'): {
        0: (5, "30e2d16127142ef006699cd9bd35088c3914272c5a95ab7be9ab34b922f148d1"),
        1: (5, "30e2d16127142ef006699cd9bd35088c3914272c5a95ab7be9ab34b922f148d1"),
        2: (5, "30e2d16127142ef006699cd9bd35088c3914272c5a95ab7be9ab34b922f148d1"),
    },
    ('star-ex42', 'seq-elim', 'x-delta-after'): {
        0: (5, "dd7f4dbd4d607dc7047176bfe04e983be005ba100462d4abd3c639a98265e6cb"),
        1: (5, "dd7f4dbd4d607dc7047176bfe04e983be005ba100462d4abd3c639a98265e6cb"),
        2: (5, "dd7f4dbd4d607dc7047176bfe04e983be005ba100462d4abd3c639a98265e6cb"),
    },
    ('star-ex42', 'survivor:seq-elim', 'delta-only'): {
        0: (5, "f3f0a7389e35aadfa2527f937d0003842d77e841cfb499c08001ea38301db40b"),
        1: (5, "f3f0a7389e35aadfa2527f937d0003842d77e841cfb499c08001ea38301db40b"),
        2: (5, "f3f0a7389e35aadfa2527f937d0003842d77e841cfb499c08001ea38301db40b"),
    },
    ('appE', 'mwmr', 'x-delta-after'): {
        0: (5, "1018bdd8b86b3be105bfd1bd9f8a77c16a65faa80b17b911db68162ddf8f3735"),
        1: (5, "dc207da74ce21dc3ac943e1d86993c126c0ae7ba5a03cbcd8fed560fab0bce4e"),
        2: (5, "72bf31148f50641497c3e088949f64363108547938716316a53fcdaf3a9f0864"),
    },
    ('appE', 'random-union', 'x-delta-after'): {
        0: (1, "cab640a20cc90c06715c36cbdef523ffe99e6bd1a4765a1ff304fd5774bf0e8f"),
        1: (5, "88e89fdbc0322ec0a79abc90e3e38f94fce1939e2116beb519424dac1565d45d"),
        2: (5, "3a152a303ff6b2b14be8694c97238777d8c3d6ac85a0e2d64ea1a8db015cd91c"),
    },
    ('appE', 'seq-elim', 'none'): {
        0: (5, "c024a962055aecc7e6ef756a80b4e6398d3072b8cad6bd5b2c1564bf41657860"),
        1: (5, "c024a962055aecc7e6ef756a80b4e6398d3072b8cad6bd5b2c1564bf41657860"),
        2: (5, "c024a962055aecc7e6ef756a80b4e6398d3072b8cad6bd5b2c1564bf41657860"),
    },
    ('stream-star', 'mwmr', 'x-delta'): {
        0: (1, "fd1dd3efa4978832cf7bebe11a86f58e4c83783d517884feb8818db9d786b550"),
        1: (1, "615ecf2422a362661d76586932baf12120a6f07b554a4554aa6430bcae116207"),
        2: (3, "caea2416589ab5728f6e8b1b70be4d50543c5b07848fd4bd4edccfd030064c49"),
    },
    ('stream-star', 'random-union', 'x-delta'): {
        0: (1, "6d692fd09862bb249f36a57628bd220bf24fd37a10511ebbe2b790dbe5a6ce99"),
        1: (3, "5632b16436023647a68a5396a4ba334be73af1f266e3d408fca76b7d83f50723"),
        2: (4, "3fcf5d29c1615edfa5b91c9b1a4d9fd4532aa435641c7ed48581f66b52e1d502"),
    },
    ('appG', 'random-union', 'x-delta'): {
        0: (5, "c1a25ac709771289e8807b94dfb2947f717a4e77241a432e2960707d6ec06108"),
        1: (5, "41b71c1e2f5d49b13b9f025be66f701ba5fc2c1d2035c8461ea1e968d9b9d015"),
        2: (5, "f3d0982c456cc31d72870e8315d39849c70fea8edb190ec74dc7666548aaa693"),
    },
    ('appJ', 'mwmr', 'x-delta'): {
        0: (5, "647006522d4f9103661d8f253ae704f0b679611a90de0bd802a8bdaaa8d4abb4"),
        1: (5, "dfe188a0dc7eed5a37ce271b40066eb927efb6c999e5285fc136eac20dc68bd3"),
        2: (5, "89672188d8a0724d1f30da2ec6495798c21ef9a31a0cb89ffe7b11f3b03cac48"),
    },
}


@pytest.mark.parametrize("env_key,learner_name,setting", CASES)
def test_transcripts_match_pins(env_key, learner_name, setting):
    got = {seed: _run(env_key, learner_name, setting, seed) for seed in SEEDS}
    assert got == GOLDEN[(env_key, learner_name, setting)]


def test_every_environment_with_a_target_skips():
    non_adaptive = [key for key in ENVIRONMENTS
                    if _env(key).source_for_run(0, 1).kind != "adaptive"]
    assert non_adaptive == ["stream-star", "stream-basis", "stream-sphere",
                            "appG", "appI", "appJ", "appK"]
    with_target = [key for key in ENVIRONMENTS
                   if _env(key).source_for_run(0, 1).target is not None]
    assert with_target == non_adaptive + ["appE"]  # star-ex42 declares none
    for key in with_target:
        skips = []
        for case in CASES:
            if case[0] == key:
                for seed in SEEDS:
                    _run(*case, seed, skips=skips)
        assert skips, key


if __name__ == "__main__":
    for case in CASES:
        pins = {seed: _run(*case, seed) for seed in SEEDS}
        print(f"    {case!r}: {{")
        for seed, (mistakes, digest) in pins.items():
            print(f"        {seed}: ({mistakes}, \"{digest}\"),")
        print("    },")
