"""Golden SHA-256 digests of every file `prepare` and `compile` write.

The digests were computed before the pipeline moved to index arrays, from the
per-line implementation it replaced, by running in one fresh directory per M:

    gmclone prepare --clones M --out DIR
    gmclone compile --clones M --input basis:0 --out DIR   # then basis:1

so both compiles take the `gm_matrix` source.  For M = 8 and 9 only the
`prepare` stages are pinned (computed before the GMMatrix coefficients were
evaluated on the support alone).

When every sector ket moved onto the Dicke construction, the GMMatrix
coefficients became the closed form gamma_j (-1)^j / sqrt(C(M,j) C(M-1,j)).
For M = 3..7 the sector kets had come from averaging over qubit
permutations, which rounds some coefficients one ulp away (at most 5.6e-17)
from the closed form.  So the `GMMatrix` and `basis:{0,1}` compile digests of
M = 3..7 were re-pinned by running the commands above once on the new code;
the recompiled states agree with the old ones to 6.3e-15 and the singular
values to 4.0e-15, with equal bond dimensions and ranks.  Every other digest
here is older than that change and unchanged by it.

When the roundtrip contraction (`kernels.contract_sweep`) became one matrix
product per site instead of one `einsum`, its sums ran in another order, so
the contracted state moved by at most 1.7e-16 and `roundtrip_error` in its
last digits.  The SVD is untouched, so no `mps.json` or stage digest moved.
The `compile_report.json` digests that did (`basis:0` of M = 4, both bases of
M = 5..7 and all four builder compiles) were re-pinned by running the
commands above once on the new code; each new report equals the old one in
every field but `roundtrip_error`, which moved by at most 4.5e-17.

When the builder compile moved from the dense register to its factors
(`mps.mps_from_factors`: the cuts through the clone half are SVDs of the
clone stack's remainder, of at most 2^(M-1) * M columns, and the anticlone
stack joins after them), its singular vectors came from smaller matrices, so
LAPACK fixed their phases differently.  Only the four builder compiles below
moved; they were re-pinned by running `gmclone compile --clones M --input
SPEC --out DIR` once on the new code.  Old and new agree in bond dimensions
and retained ranks, in the singular values to 5.9e-15 * sigma_max and in
the contracted states to 6.6e-15; the fields of `compile_report.json` other
than the singular values and `roundtrip_error` are unchanged.  The `basis:` compiles above read the
GMMatrix stage and compile its dense register by the same sweep as before,
so none of their digests moved.

When the `basis:` compile of a GMMatrix stage moved onto the same factor
sweep (head: the stage register as a 2^M x 2^(M-1) matrix times the
conjugate transpose of the anticlone stack; tail: that stack), its singular
vectors too came from smaller matrices.  Of the `basis:` compile digests of
M = 2..7, all but `basis:1 compile_report.json` of M = 2 moved, 23 in all;
they were re-pinned once by running the commands above on the new code.
Old and new agree in bond dimensions and retained ranks, in the retained
singular values to 5.9e-15 * sigma_max and in the contracted states to
1.2e-15; the fields of `compile_report.json` other than the singular values
and `roundtrip_error` are unchanged.  The last cut through the clone half
now lists M singular values instead of min(2M, 2^(M-1)); the ones it no
longer lists were discarded rounding, at most 5.2e-15 * sigma_max.  M = 1
has no cut, and no `prepare` or builder digest moved.

When `compile` stopped forming the 2^(2M-1) register (the roundtrip check
multiplies the export's two halves at the clone|anticlone bond, 2^M x D and
D x 2^(M-1), and compares them with the reference a block of 32 clone rows
at a time), `roundtrip_error` was summed in another order.  The sweep, and so
every `mps.json` digest, is unchanged; so is every `prepare` digest, now
written in chunks of rows.  The 13 `compile_report.json` digests that moved
(`basis:0` of M = 3, both bases of M = 4..7 and all four builder compiles)
were re-pinned by running the commands above once on the new code.  Each new
report equals the old one in every field but `roundtrip_error`, which moved
by at most 3.9e-17 (`basis:0` of M = 5).

`prepare` digests are pure text and must hold on any platform.  `mps.json`
and `compile_report.json` carry SVD output; they were produced with numpy
2.4.6 (OpenBLAS) on x86-64 Linux, and another LAPACK build may round the last
digit differently.
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
            "0eadad4a1bf48ad5b169785a416e011420631516ed0aac8ea8b2d1c3187bf3f9",
        "basis:0 compile_report.json":
            "d6ee1b0d341e63160243d7280e5eb6d6991521433d5d901ce8822acf9d95a5d8",
        "basis:1 mps.json":
            "5d8ee911dac47cc6eeb0440f2b4c773cfebe3459ae4ddce12a459b2ded035272",
        "basis:1 compile_report.json":
            "8f47502935a2d3942f2ced1ddea2545d26a050cd1d97fa282ddae8e480178397",
    },
    3: {
        "FullBitString":
            "e78972f45c14344fe300118dae2dea7bcd1279c62a8c9e46647847ff1cb3a7b7",
        "GMBitString":
            "98d44952c958011ebd753ae90e18735cf193936d07030d6ca590189803ce4ea5",
        "GMMatrix":
            "9564e49c4d2bd2b120da6541904cfdb23706b495d5a8c9c88aa30fbe396bb3dd",
        "basis:0 mps.json":
            "5313815ae41b61018378b6b3bcf26de03b5a729e1c359bd8e1001dcc78c6ce6d",
        "basis:0 compile_report.json":
            "4a76e05778e4e503b2ce6c823a36bd6a5d8295cb7550700f6b19b389dc7923a5",
        "basis:1 mps.json":
            "59a4fc4395cfda01de87c440b053d27e9f0a05e333b44e877292d12e1a6e585f",
        "basis:1 compile_report.json":
            "c3db435d7db36c5f5ec0db64824d6243e2eab84660d67b1827afb60efebef7c8",
    },
    4: {
        "FullBitString":
            "337915d88d9b3a23d8b9238a639cf0d3959de2ccbf8e50f7cbee688b9ce910a8",
        "GMBitString":
            "e8156d158f24da9af45b3659c44f59af9c8bb8383a4968d581bd7649f0366e21",
        "GMMatrix":
            "b7996712e3f26a520cfdc873e83ed130b880adf301a23458dd0c184811605858",
        "basis:0 mps.json":
            "1bbe9290274867c10acf73ec6743e64b037d82e3c5592d0be8343693a665aa72",
        "basis:0 compile_report.json":
            "80fd32c6e965275ec4533dd8c59b9a01bf093235f727ee1db66ada1eb7a0e9bd",
        "basis:1 mps.json":
            "03249d2eae3d2a2d51d01cd8a191ed9369d3eab917f43b8b7b1117f46d6d1e86",
        "basis:1 compile_report.json":
            "03e565591a248123da348189b7239c25433ad7fc6a4f721c63c59a2d62166870",
    },
    5: {
        "FullBitString":
            "ac90f2f2f4c7eedaccbefa722905664be8a29e92a918cfa4266f08e8de920a07",
        "GMBitString":
            "ce0ca21a2bab9b596d037a7fcde3466c4a07176b5ec6689a65cebb0974e90eb9",
        "GMMatrix":
            "1bc4431a631ac4fb68a099ae97bf148a8e23f91803b1b6b1b26a516ff8ed7f6e",
        "basis:0 mps.json":
            "b9dba2a6fe582702294eaba1435e92492b531c0e93ab3182afe861acc91c4c38",
        "basis:0 compile_report.json":
            "84c3265b16812d6e732aba27c2b445f22e67b146ee3be2b5b87aa7ea5003b477",
        "basis:1 mps.json":
            "2b77c7853410e6a4a80c4eabc613085c2375a223202c206aeae2d160add5ad98",
        "basis:1 compile_report.json":
            "42c1b76bc385b387fc3933f50539a363539bbb0d3596cf04fe2b8b7238e12a37",
    },
    6: {
        "FullBitString":
            "b5d5865b05975c29ca8279bf307780b7e534b85c6d88d20bfc0333dcfb714248",
        "GMBitString":
            "e31575f8ae2241387b2d16c90ddf4a418a2ef1a034296787b3d6e88ff4357138",
        "GMMatrix":
            "035b0d9a8a52134ca2ce17a00ba34b61a36dcda303a1cf6a31b599260679068d",
        "basis:0 mps.json":
            "3a961fe9f5d64ecc8bdc45aec10945aa133a093ce622ec391008094ac73dab20",
        "basis:0 compile_report.json":
            "6a55c4c1115d5a29464509c3781ae6b3d450a19248c90ab94a0a2b5bb06a0ed4",
        "basis:1 mps.json":
            "b294d7e27b830c4fa602860774c587dabab2ce2ef7faa1cfcc8eeca689d59c99",
        "basis:1 compile_report.json":
            "7ebe66c06cddd020d3db664d99af8c8c35c1359bd229edc5d479b744701f45d0",
    },
    7: {
        "FullBitString":
            "f84078a534bcf01d62b3fab24facc7c6163ba273e06018196b5a1caad60795b9",
        "GMBitString":
            "cbec3b2057aef250bd3f5d10d456c8a9d79afd6babe9a4dc0fd7d6d515aaf4f3",
        "GMMatrix":
            "6eb5d391b6cc99c8c836cf790e91e941128ba0c9677cbdfd412728352c8d9ce2",
        "basis:0 mps.json":
            "6fc9948f9180e41dbc5a9d78eb631a7b595fe958b1fd27a6ef5026b3faa3e7b4",
        "basis:0 compile_report.json":
            "a29ff66b492ebbd59ae62084af4f37fe405e7e5403741ec4043fb89abcbda07f",
        "basis:1 mps.json":
            "1cea955891445023f1509babb83f8a23d3a25c03e52761d948c98d3792cb4753",
        "basis:1 compile_report.json":
            "c7b13f21b32a208202d4ad35705c8bdbf86ee685f1a7a469238185a0f3733568",
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

# `compile` from the builder (no GMMatrix in --out).  Re-pinned with
# `gmclone compile --clones M --input SPEC --out DIR` once the sector kets
# came from the Dicke maps by one gather; before, they came from averaging
# over qubit permutations (M = 5) and from a kron recursion (M = 8).  Old and
# new compiles agree to 4.0e-15 in the contracted state (`mps_to_state`) and
# to 6.8e-15 in the singular values, with equal bond dimensions and ranks.
# The `compile_report.json` digests were re-pinned twice more, when the
# roundtrip contraction became one matrix product per site and when the
# roundtrip check moved to row blocks; only their `roundtrip_error` moved
# (see the header).
GOLDEN_BUILDER_COMPILE = {
    (5, "equatorial:0.7"): {
        "mps.json":
            "1fca5f2fa0b0c3696b30db278d9ebc33816e51d235b7495bb6af44690c6b1d5c",
        "compile_report.json":
            "dec9a3a47a6db12ff2382769bf58f084c781bd3c0123a3c7911f171538585f66",
    },
    (5, "amps:0.3,-0.2,0.5,0.4"): {
        "mps.json":
            "a8177a4c485d9c6105be97e35a5cc1ba50283e98c1855391b72f9e898c50d321",
        "compile_report.json":
            "1f062b5de2f6741a01620a4431f05fd45222bc1204776d0409bf04ea96e77e26",
    },
    (8, "equatorial:0.7"): {
        "mps.json":
            "b7809048ae0e6eac8f10174e93a08f1b886f15da4e7e0e84b2edb9ba7a835592",
        "compile_report.json":
            "dec0c2f218f9f142b43673d151ac85f017953382b826c76af27edf8ba3b3c04e",
    },
    (8, "amps:0.3,-0.2,0.5,0.4"): {
        "mps.json":
            "9c50e165ea7c60516937cdf4aa6de158ddf6e0d49fbaa72eb2c5f86c0d457007",
        "compile_report.json":
            "88c8a74f2cf87470ea42e4edb8a18892fe1c588e0a6df6e48d1a95d2608525bf",
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
