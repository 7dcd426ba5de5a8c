"""Golden SHA-256 digests of every file `prepare` and `compile` write.

The digests were computed before the pipeline moved to index arrays, from the
per-line implementation it replaced, by running in one fresh directory per M:

    gmclone prepare --clones M --out DIR
    gmclone compile --clones M --input basis:0 --out DIR   # then basis:1

so both compiles take the `gm_matrix` source.  For M = 8 and 9 only the
`prepare` stages are pinned (computed before the GMMatrix coefficients were
evaluated on the support alone); at these sizes both sector kets take the
binomial construction.  `prepare` digests are pure text and must hold on
any platform.  `mps.json` and `compile_report.json`
carry SVD output; they were produced with numpy 2.4.6 (OpenBLAS) on x86-64
Linux, and another LAPACK build may round the last digit differently.
"""

import hashlib

import pytest

from gmclone.cli import EXIT_OK, main

GOLDEN = {
    1: {
        "FullBitString":
            "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
        "GMBitString":
            "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
        "GMMatrix":
            "e6183820a5eb6474f26e18eee5e747c95b34a7bca24b08a7c8fbeb15efa13f73",
        "basis:0 mps.json":
            "ac71dacff1563208d5bda8c053ff2316184dec71b4bcdaa01b850e0479e44879",
        "basis:0 compile_report.json":
            "f2a9e9b83b5f62bdc277ff40e89709bbe304339830a67dfb793fadb737429a07",
        "basis:1 mps.json":
            "0b92f6fe306dfcd36542f74682c1d06f15baa9422cad1919468911b87afd0efd",
        "basis:1 compile_report.json":
            "5c104d508840f9aadeb32b14112f3eab81562c1c55f7d7ffac286520c94812b9",
    },
    2: {
        "FullBitString":
            "74c691ad79435c1b63bc666b42ae131acd2d5e2b9e80eafcb728b9df5831125d",
        "GMBitString":
            "2b64f2ed2ddc9c6376946fd6699dcbf4dfca9335b82a70fb9d5490cc5f451917",
        "GMMatrix":
            "140ec135117d33364e8e01990178c7870eb2748b611f78e640f09f5eb999ff50",
        "basis:0 mps.json":
            "c02f7e3e3614b256bbd931b6e0e7f844a6950b9e33725e8f006ceabc389f8528",
        "basis:0 compile_report.json":
            "230c2b6ff6b5e00af1e60448e19c33cc237bca217a928d67809acf4ce86a9414",
        "basis:1 mps.json":
            "0ea6242bef23228e87f348d26a7ea9e41f09828b3c5db6cf6722b5775bd933c4",
        "basis:1 compile_report.json":
            "8f47502935a2d3942f2ced1ddea2545d26a050cd1d97fa282ddae8e480178397",
    },
    3: {
        "FullBitString":
            "e78972f45c14344fe300118dae2dea7bcd1279c62a8c9e46647847ff1cb3a7b7",
        "GMBitString":
            "98d44952c958011ebd753ae90e18735cf193936d07030d6ca590189803ce4ea5",
        "GMMatrix":
            "875cc0fee6b55e1e4b8b80c5e496f91baa6c58cf6464bf0cbdab80b6a19bb0f8",
        "basis:0 mps.json":
            "b444c26d7ec55ec0bdb729d322da9326a18a8bc5379d8d6b60812f0901163a2c",
        "basis:0 compile_report.json":
            "5518de41dcafe91b44b22ec054083fddadca3f47dab2c1db9a32bd551d37c2ec",
        "basis:1 mps.json":
            "db53a8a9b3831211fb7bcf4ba48bac4adde1c3a8c0d67ed202433133b70b93b1",
        "basis:1 compile_report.json":
            "1fbbead67509e529772a0b734cca210e1708f31a0f8e2e51aaf3fee2f120cb33",
    },
    4: {
        "FullBitString":
            "337915d88d9b3a23d8b9238a639cf0d3959de2ccbf8e50f7cbee688b9ce910a8",
        "GMBitString":
            "e8156d158f24da9af45b3659c44f59af9c8bb8383a4968d581bd7649f0366e21",
        "GMMatrix":
            "c724bdee5735d6359dd3a60425a1f8fd64ad6fc675e5a39f00dab99226c2e8d1",
        "basis:0 mps.json":
            "dda5a8d8ed8a7d6b80e2452ad83ee521b80d054b5eddd6e0ca0d3c997bc50ed6",
        "basis:0 compile_report.json":
            "199f700de843a234d493dec20a70aa92bc49b560790bf6cea41a7cf8193d1e53",
        "basis:1 mps.json":
            "dfc081b55a59076089eba9c7a81dcf61c683666e270a5a6b64dc4db50cd7e30e",
        "basis:1 compile_report.json":
            "5bc2ec196d377ceda3e190684d3566abceef78bf9f3538adae96da5cbde8cb2d",
    },
    5: {
        "FullBitString":
            "ac90f2f2f4c7eedaccbefa722905664be8a29e92a918cfa4266f08e8de920a07",
        "GMBitString":
            "ce0ca21a2bab9b596d037a7fcde3466c4a07176b5ec6689a65cebb0974e90eb9",
        "GMMatrix":
            "d992869741d51aee6be41263ec8d6b0247feaa436a1379882e9bbd36ea41426f",
        "basis:0 mps.json":
            "ae6566765b839924d69328599116e34b11949faa047950a8c2df1b92ddf166e6",
        "basis:0 compile_report.json":
            "a33517ec485ce6c8a719c27757e02bb5fb937544b0c79a8bdfc60b848ec318eb",
        "basis:1 mps.json":
            "d11e9e2c41b69f7f4bb29851fea14437c4b27f2318749a38ec43f6189e7d8217",
        "basis:1 compile_report.json":
            "c2084bf5a08fca4dd12f7538d693e12ee1d2c97978eca020d1c6545340c74d09",
    },
    6: {
        "FullBitString":
            "b5d5865b05975c29ca8279bf307780b7e534b85c6d88d20bfc0333dcfb714248",
        "GMBitString":
            "e31575f8ae2241387b2d16c90ddf4a418a2ef1a034296787b3d6e88ff4357138",
        "GMMatrix":
            "81fa7b9b6d5547d18e1f2813b13ac020f43914568288cbed0adc97bf0c7c75e5",
        "basis:0 mps.json":
            "77c27f43aec0c9d501a5b70298487f1a25f404eba233416c903d6f392ad7950a",
        "basis:0 compile_report.json":
            "c6b8a49e55b47d17a0aae56787f970f9ef08bee6a49004ea78c7ea90919ffd1a",
        "basis:1 mps.json":
            "16b9853415f2375b5e2fa1ceeeaf10a61f167f38883607659c920564babd7ce5",
        "basis:1 compile_report.json":
            "a46ade9f5a3cefbb4692958b98aed9979974869f7e7b38d89e15399cf29b03cf",
    },
    7: {
        "FullBitString":
            "f84078a534bcf01d62b3fab24facc7c6163ba273e06018196b5a1caad60795b9",
        "GMBitString":
            "cbec3b2057aef250bd3f5d10d456c8a9d79afd6babe9a4dc0fd7d6d515aaf4f3",
        "GMMatrix":
            "48303dee7dd76f5db45d37eedf2ccd9d61fc4d76e8f35b8137ff7d1743c74fb3",
        "basis:0 mps.json":
            "b2fbc6cef398040c49e3f5bd3c9e0ab18050c369b9c9df1834664bd80360a20c",
        "basis:0 compile_report.json":
            "25ff6dabce41ab6aa7a6681089202f0d6d8cb6ca18a93c6682e6721de53586fd",
        "basis:1 mps.json":
            "637acbf5dde108c90d114686e3f4514db08d0db8ca79f830c50293fe94daca4f",
        "basis:1 compile_report.json":
            "b14a9a5df80b366856b5a9e57dadde2ee6ad1c02443caed068be1d951ce2fa77",
    },
}

GOLDEN_STAGES = {
    8: {
        "FullBitString":
            "33031db09c54da62fd1209653bb91a40bd455a13043d3bc6adc2f3798f4a31ca",
        "GMBitString":
            "eeb3680d81828c2bdffca222c3041d8fbddaaa665c33fb09bb40092d318f8c05",
        "GMMatrix":
            "a18f9f7c9d7067686e902edfb3701cb6253aad92c6d600c785799ca3481333eb",
    },
    9: {
        "FullBitString":
            "b5923e22c47b0ed13790b2eca1d01bc6830808bc42872382bfebd44d04eea950",
        "GMBitString":
            "749b40f30e40cbf2235d3e6596b268e3960d82a86eedae00e902820f4c1c0bc3",
        "GMMatrix":
            "786ba5c4f20d30dde1144411a6c2dd809df8d444d2bca86c1e8204596f2ebc1d",
    },
}

# `compile` from the builder (no GMMatrix in --out), computed before the
# builder's state stopped being held through the SVD sweep and rebuilt for
# the roundtrip error.  At M = 5 the sector kets come from the permutation
# symmetrizer, at M = 8 from the binomial construction.
GOLDEN_BUILDER_COMPILE = {
    (5, "equatorial:0.7"): {
        "mps.json":
            "a0e1b6ce82407a30505345d2195fa72bc952595de791325ce9218cfb03b1e47c",
        "compile_report.json":
            "3877a8e0a01edd1e091ea726843698f484eac1fb1cd592f6a1a03b5aab593da2",
    },
    (5, "amps:0.3,-0.2,0.5,0.4"): {
        "mps.json":
            "c8fae363bc58c3176c31b71fc5b34e82f7655a169e8924e7c07cf616c54839e6",
        "compile_report.json":
            "803778faacbe21b3a4e728584523375a3e541059120f9adf02ed70ccd924fd85",
    },
    (8, "equatorial:0.7"): {
        "mps.json":
            "b525f25ffc77bcb3f5f94b4bd67fe5095257110badc9fae7519097dc6b25b7e1",
        "compile_report.json":
            "7d70b02e228a16252e59e35d238adc740077d0a4f96e31cf4b37686d61de8a13",
    },
    (8, "amps:0.3,-0.2,0.5,0.4"): {
        "mps.json":
            "fe8c274a370d863adbff774ff85a89def0036f656e43dc8a8b7c374cba3c871f",
        "compile_report.json":
            "c337becd061a019171e97e9e32c7c883da562594591cbd9bbc1df46759f50c8f",
    },
}

STAGES = ("FullBitString", "GMBitString", "GMMatrix")


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("M", sorted(GOLDEN))
def test_prepare_and_compile_bytes_match_golden(M, tmp_path, capsys):
    expected = GOLDEN[M]
    assert main(["prepare", "--clones", str(M), "--out", str(tmp_path)]) == EXIT_OK
    got = {name: _digest(tmp_path / name) for name in STAGES}
    for bit in (0, 1):
        argv = ["compile", "--clones", str(M), "--input", f"basis:{bit}",
                "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        for name in ("mps.json", "compile_report.json"):
            got[f"basis:{bit} {name}"] = _digest(tmp_path / name)
    assert got == expected


@pytest.mark.parametrize("M", sorted(GOLDEN_STAGES))
def test_prepare_bytes_match_golden_past_m7(M, tmp_path, capsys):
    assert main(["prepare", "--clones", str(M), "--out", str(tmp_path)]) == EXIT_OK
    got = {name: _digest(tmp_path / name) for name in STAGES}
    assert got == GOLDEN_STAGES[M]


@pytest.mark.parametrize("M, spec", sorted(GOLDEN_BUILDER_COMPILE))
def test_builder_compile_bytes_match_golden(M, spec, tmp_path, capsys):
    argv = ["compile", "--clones", str(M), "--input", spec, "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    got = {name: _digest(tmp_path / name) for name in ("mps.json", "compile_report.json")}
    assert got == GOLDEN_BUILDER_COMPILE[(M, spec)]
