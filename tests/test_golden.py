"""Golden digests: the bytes every artifact of a small run must keep.

The config is ``test_cli.write_config``'s. ``pipeline``, ``ablate`` and
``explain --limit 4`` write the artifacts below, and each must hash to the
pinned sha256 at ``--threads 1`` and ``--threads 2``. A change that means
to alter an artifact byte updates the digest here and says why. Stamps
are left out: they record absolute paths.
"""

import hashlib

import pytest

from oodscan.cli import main
from test_cli import write_config

GOLDEN = {
    "ablation.csv":
        "3e2815b1d178c2b4ba804a7cc623337a333dc7affe1c7355819f83fdb3a4835b",
    "features_deep.csv":
        "4479f44be2b8e1ce0c169107b6c8dc8010216fd2ea9a4317804349154d343df3",
    "features_radiomics.csv":
        "07d131cdb7ac3438cbebef5b8cfe1fb2451e655e3dc3bbed8a28c854c278ba98",
    "kidney_0000_logits.ovf":
        "9ca52b42e9c3d1c2392f4d0e9bd7a665ab67efdbb95f736fd12f241debf02657",
    "kidney_0000_mask.ovf":
        "591a6319d2f2f9e4e0ae25b4e696f97b42061aecb58696b0b8dddb6db3056ce6",
    "kidney_0000_p0.ovf":
        "460852b0425d165291fb18dc4abe2cac9bae886a189928d85df8d9dae307e133",
    "kidney_0000_p1.ovf":
        "4b598a196b4366e55a8cae20c3813464839b1eca746f459d966507de7ddd4aeb",
    "kidney_0000_p2.ovf":
        "834014e229af5a549ebe462e1acddf5bfe1c2044f94741e0ad13bb57d2bab6d1",
    "kidney_0000_p3.ovf":
        "904cec51af90138de7ee35d3261c9213e4283b2e5c9db8805ad9046595f905bc",
    "kidney_0000_p4.ovf":
        "b79aa5bc386277b24406f841fda056a2eb7a69033f811c826e3851da37c14244",
    "kidney_0000_vol.ovf":
        "484fa56e8899ab002278b8385a51a3d6567980e5fbe8f45ef0e6b51d9d51d221",
    "kidney_0001_logits.ovf":
        "776f1985a796971a5260fcb396e2faabe6805ab1014dbf05437070ce590ad92d",
    "kidney_0001_mask.ovf":
        "21388e73ab81df5128f23eb5ea21032bc0965d05c92fb680c7df884742d71f04",
    "kidney_0001_p0.ovf":
        "63c4a22e93b4ad470338de9cd8267602840a3a886f6c3b2406cb9503f0ad7655",
    "kidney_0001_p1.ovf":
        "c43e9e219357ae3f3d9014d4f73b4c593a236944a62cecd05009cb8802aee5b6",
    "kidney_0001_p2.ovf":
        "b5b1b5d7b52ce26225a437c8cf7cd29fff4baa0e645d0bef937480e2ff7e2e07",
    "kidney_0001_p3.ovf":
        "dd04c93c29eaf71c5365d8cfb6ec09b6fe6a49495b0414b5d90d6ea5f1532182",
    "kidney_0001_p4.ovf":
        "450c8ec28a5f811c2af0f70178f9fcd1ea9607e56d524b4b74822672c1260a69",
    "kidney_0001_vol.ovf":
        "84565c58464f763e20d4f4178be1fda0609a1ba3d6fd19f4a259b03d38810f07",
    "kidney_0002_logits.ovf":
        "795d023c55834eef8ca0225d485d8215172da16ea87753924d626d4141d92530",
    "kidney_0002_mask.ovf":
        "79eb95ed67577c80465afaa39b69f640fea17a51a7a163fec44c6b9e5f6af18d",
    "kidney_0002_p0.ovf":
        "b50fa26129a8053dd2f66e9372075e64a04915e8b91568dc281ea75d386e43f0",
    "kidney_0002_p1.ovf":
        "12aa0c9c92bca2a21a5f73bb69f3a79cfde4d84fb4cf7ff712e65ef515ac3c29",
    "kidney_0002_p2.ovf":
        "63280aa2b29b74d6c53e7196008eb8219e9477e0908c7449e0a9c320b08c33dd",
    "kidney_0002_p3.ovf":
        "ee8288399f206a5505e2e86616cdbd2a3fb68b2ff1144bd54caef4077a448e60",
    "kidney_0002_p4.ovf":
        "2fa1e9f0459949eb5798e5e8b5e1b48312401332ffc1faf8721e8858a93ed645",
    "kidney_0002_vol.ovf":
        "80bf7cb1fa170aaf283fc0e75f7bfc8a7f898d0c40cf07f335dd52c61b03700e",
    "kidney_0003_logits.ovf":
        "a023066a9fbccb18bedb560bce09309cd1ac1b9ef39e86998e22568fd7679149",
    "kidney_0003_mask.ovf":
        "4a3a3307f4ab11f31aa3aceaf163c7f7d149a28bf4da0b859c14b3cb33ce6997",
    "kidney_0003_p0.ovf":
        "8b26f4ea97b1317c8a22c3c4ec895a730094f025146f797072d6fdfb17c0b820",
    "kidney_0003_p1.ovf":
        "70423c97f91672f012017a0265d4931607cf048e8014dd4700caf62ad6300877",
    "kidney_0003_p2.ovf":
        "604c38edc7cc88fd4baf462e1d80da0864fdf944f6de611c46bcc1979449d4c6",
    "kidney_0003_p3.ovf":
        "37bd79adb89f916d87d74ed819b0cda24d3cbd44a07d53ddaecc9aa557e1fd51",
    "kidney_0003_p4.ovf":
        "29159dd4942420d4731cafbb59ca2d3a36cfdd06be78af4fc511ea797dd3b129",
    "kidney_0003_vol.ovf":
        "a84dcfd5172f74923781765d803ac7093cfece02889b17bf7e71a41a88422e8e",
    "lung_0000_logits.ovf":
        "101764180bfbbc4e41992de73696f0333873f6fb7017696ed86a3aac0d444b46",
    "lung_0000_mask.ovf":
        "6070b583b15bc9a94e80a471ac35c808b6afdff9790b9a99e60176d2ffc75533",
    "lung_0000_p0.ovf":
        "d2530c2c1585dcb09a43def0d10132def7bbe6b1467c8ac5ab5f30c40dfd2445",
    "lung_0000_p1.ovf":
        "5f422e180614da46b08c71a1ace6d45957683ed557dd205cf16aa06c354c6f48",
    "lung_0000_p2.ovf":
        "e08b50a4dc201b1679e9ebd7a350c3ed2eca57e4291bb32f72e16f0834ff50b4",
    "lung_0000_p3.ovf":
        "a30a2b17f9237f17ec118b2cd545a835b786ccc42160ca5d180c1114981f3752",
    "lung_0000_p4.ovf":
        "9ad93704813a9f28ef95a77a05ab0876c940796f4afd2913ca2070dddcd0acbc",
    "lung_0000_vol.ovf":
        "d83717f981d1fd8d785e50d5d396b52c372bb56a9a6e23ed0d65aa7991494b38",
    "lung_0001_logits.ovf":
        "3dcdbfa946f151259e7328810bd3792fb0a84f2faadfc1999debe7e13a1d8db1",
    "lung_0001_mask.ovf":
        "7adf8d63fde097649c6790f004895a05d89a0141f068f3d50fd69c2beab7c5ae",
    "lung_0001_p0.ovf":
        "f5204d2b57fde129cdcec161e719a8da10e7c84e85e0d8314095d7034443e45b",
    "lung_0001_p1.ovf":
        "a5e35264e720729e90278cbe27b0e3db04bedf3f3a076dc4c7d677b66eb81b6b",
    "lung_0001_p2.ovf":
        "59fe324a285ea2487630c5ba73ddab13dcb4f7d3466f12e0299c08b02114a042",
    "lung_0001_p3.ovf":
        "56e3cf684d4404b26d66a0250c76a692b714a415be724dc1741b74a68950cd40",
    "lung_0001_p4.ovf":
        "2bd6c413c263c1d09921204911b8a6937964772af54790e6576962ca6b2bab4c",
    "lung_0001_vol.ovf":
        "b9a3ae89933389da2db18c18ad44937e6f1799d10985629c1badbbd1867aa20d",
    "lung_0002_logits.ovf":
        "79ef5c2ec52252a712d38cfaee38139af7bb9f77a6d1c3b358a72068a99bfdd2",
    "lung_0002_mask.ovf":
        "f45fc3a02925709da522755220f775b922f8f3ce4c4ffa096d5ee821862ea62c",
    "lung_0002_p0.ovf":
        "518eb44275041387ba29d0e7630016573abafb39ed7c34b4b3b95a0f6ed166fe",
    "lung_0002_p1.ovf":
        "87fdc24ae1602609fc0dd3531eaca954be4153ddf0e709060d78d624436e1e3f",
    "lung_0002_p2.ovf":
        "87133be94340983b4b45a2c69b8dd258dbe92c4e4e8991904c6cbc79a19c4e88",
    "lung_0002_p3.ovf":
        "67e05da9dff92e3e97f6515cb8ec81caa9199ad9300057468452f344b2956456",
    "lung_0002_p4.ovf":
        "cdc31bdf95904589da19ca9d4506739b0665a597bde67f458fa4d6d0e5dabf97",
    "lung_0002_vol.ovf":
        "4078bc20752038e96ead36f63262616900986110d5860a61e6d89d043a30555c",
    "lung_0003_logits.ovf":
        "cd47c1e7ac72654a1a14d6436e57a7d023933c529658594cf15cf67fe5a1885c",
    "lung_0003_mask.ovf":
        "e4bd7bfead09e5f2ee297a75cf9114309d6a5d2cf3047b06fc81834cf84e1ede",
    "lung_0003_p0.ovf":
        "6a86d9694e8abacd2e8fb3bd036456b79522adbdd4428840a6b6fb0e129fcd33",
    "lung_0003_p1.ovf":
        "57c69d35bd9bf08c5f55c166ffabb6e662d803641189ac8860d62ec0da8bf765",
    "lung_0003_p2.ovf":
        "39b678f081b9f87cecd26dd7c2e029edb07d2037e3419a7146cf5a639a333df7",
    "lung_0003_p3.ovf":
        "4322a7ae3abbe502a5515d85e56edc6530ef5007cc6a806c534370c2f9f8a3f4",
    "lung_0003_p4.ovf":
        "899cbfc4f8df9eb45bf862f247f0c2ed401fc6b223a96ff56a44ce6873402c54",
    "lung_0003_vol.ovf":
        "183cbcb5bd4dfe65093c493a1821e88bf0284b00e318d2a959126dc140d53201",
    "manifest.json":
        "90d3ea7bb127771aa6903ae1ca21e76ee42299e937e4501d6431b72c4eaa6364",
    "per_seed.csv":
        "7f383943cb8c23677fe396760d7b35206115e899e6939c72829cdb84c2a6f62e",
    "rf_deep.model.json":
        "1db1acc64bd824ebd34cc20d2c7c2d6f1f0d89b23b70742c33b2d90876b12939",
    "rf_radiomics.model.json":
        "85297535eedd90c2a322a30c72f24feb7cb73401bc5f82309854595287da08cc",
    "scores.csv":
        "a561a7c11b4bbae5d683ec5f586cbfc8a1261915020a80f13c26001c04ca1087",
    "shap_deep.csv":
        "d2a5149a0683602d5946938301d1cdbff6f6ae56b9f482f763143c6d8f335cb7",
    "summary.csv":
        "ba9ff7fde1d1b5fb623dffdc0750d0cbd9fd361ed754abdcc4efe7ea03c6d498",
    "summary.txt":
        "5a5a7fe15293d1b242646955c075c590a8da3d3c16fd32a1a1094961fd360572",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_artifacts_match_golden_digests(tmp_path, threads, capsys):
    cfg_path = write_config(tmp_path)
    for command in (["pipeline"], ["ablate"], ["explain", "--limit", "4"]):
        assert main([*command, "--config", str(cfg_path), "--threads", threads]) == 0
    capsys.readouterr()
    work = tmp_path / "work"
    digests = {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file() and ".stamps" not in p.parts
    }
    assert digests == GOLDEN
