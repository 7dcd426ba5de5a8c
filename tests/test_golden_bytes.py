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

When the roundtrip contraction (`mps.contract_sweep`) became one matrix
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

When both compile routes moved onto one sweep in Dicke coordinates
(`mps.mps_from_dicke` over the (M+1) x M matrix c of the output on
|D^M_a>|D^(M-1)_b>: the builder's c from its Dicke maps, a stage's c from its
records summed per cell), every cut became a (2 D_k, m T) matrix over Dicke
states instead of a 2^(M-1)-wide remainder, and the builder's roundtrip
check became one product per block, [L | head] @ [R; -anti].  The 31
digests of the compiles with M >= 2 moved: both `basis:` compiles of
M = 2..7 (all but `basis:1 compile_report.json` of M = 2) and all four
builder compiles.  They were re-pinned once by running the commands above
on the new code.  Old and new agree in bond dimensions and retained ranks,
in the retained singular values to 1.7e-15 * sigma_max, in the contracted
states to 1.7e-15 and in `roundtrip_error` to 3.3e-15; the fields of
`compile_report.json` other than the singular values and `roundtrip_error`
are unchanged.  Each cut now lists min(2 D_k, m T) singular values, where it
listed up to 2 D_k; every value no longer listed was discarded rounding, at
most 4.9e-15 * sigma_max.  No `prepare` digest and no M = 1 digest moved.

When the builder's roundtrip reference became the register of the compiled
matrix c itself (each block [L | H] @ [R; -K], column b of H the clone
half sum_a c[a, b] |D^M_a> and row b of K the Dicke state |D^(M-1)_b>)
instead of the weighted sector kets gathered from the same Dicke maps,
`roundtrip_error` was summed from other products.  Only the four builder
`compile_report.json` digests moved; they were re-pinned by running
`gmclone compile --clones M --input SPEC --out DIR` once on the new code.
Each new report equals the old one in every field but `roundtrip_error`,
which moved by at most 1.4e-17 here (at most 7.3e-17 over builder compiles
of five inputs at M = 1..12).  c and the sweep are unchanged, so every
`mps.json` digest, and every `prepare` and `basis:` compile digest, holds.

When the builder's roundtrip check moved into the symmetric subspaces
(with the export's halves L and R, A = K_M L and B = R K_(M-1)^T for the
Dicke bases K_n, the sum of the squared norms of A B - c, (L - K_M^T A) B
and T (R - B K_(M-1)), T the triangular factor of L), it stopped forming
any block of the 2^M x 2^(M-1) register, and `roundtrip_error` came from
other products.  Only the four builder `compile_report.json` digests moved;
they were re-pinned by running `gmclone compile --clones M --input SPEC
--out DIR` once on the new code.  Each new report equals the old one in
every field but `roundtrip_error`, which moved by at most 3.1e-17 here (at
most 1.7e-16 over untruncated builder compiles of five inputs at
M = 1..12, and at most 7.9e-15 relative at `--tol 0.999`).  Byte for byte,
every `mps.json` of those compiles, every `prepare` stage and both `basis:`
stage compiles of M = 1..10, `sweep --clones 12` and `analyze` (JSON and
CSV) of the five inputs at M = 1..12 are unchanged.

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
            "9564e49c4d2bd2b120da6541904cfdb23706b495d5a8c9c88aa30fbe396bb3dd",
        "basis:0 mps.json":
            "050c4043b591fb3a025c020b70d96055a777dd67a391031493208ecd28a92939",
        "basis:0 compile_report.json":
            "db79134314b5fbbf88a3b685f79a7d007049c2de4823588bba307443e02dba1e",
        "basis:1 mps.json":
            "929023e8e6c8c9337e3a6103c071d4da63831f0e143e75856613daad9d39c9a5",
        "basis:1 compile_report.json":
            "f5995c4fcac9c184c5400ed3406bc7abe46e1139de7b3ff2bc44c7f75c76fbbb",
    },
    4: {
        "FullBitString":
            "337915d88d9b3a23d8b9238a639cf0d3959de2ccbf8e50f7cbee688b9ce910a8",
        "GMBitString":
            "e8156d158f24da9af45b3659c44f59af9c8bb8383a4968d581bd7649f0366e21",
        "GMMatrix":
            "b7996712e3f26a520cfdc873e83ed130b880adf301a23458dd0c184811605858",
        "basis:0 mps.json":
            "7c153f7d8c48526698d493298a4e660115a555d554f00c785a5d74c6b8b667db",
        "basis:0 compile_report.json":
            "a5951d42df1efe9faed014511d5b5d07117d698dbcf6e282d4d69638d8a776da",
        "basis:1 mps.json":
            "5fef666287c8174b7f67a70ff8233dfdc962aca1a0e1c42b58289e1bbc0bae5e",
        "basis:1 compile_report.json":
            "fa650776c5f5b7afa5de4d6d090b8d9ad1390b6e299c63a084023367c5c18e98",
    },
    5: {
        "FullBitString":
            "ac90f2f2f4c7eedaccbefa722905664be8a29e92a918cfa4266f08e8de920a07",
        "GMBitString":
            "ce0ca21a2bab9b596d037a7fcde3466c4a07176b5ec6689a65cebb0974e90eb9",
        "GMMatrix":
            "1bc4431a631ac4fb68a099ae97bf148a8e23f91803b1b6b1b26a516ff8ed7f6e",
        "basis:0 mps.json":
            "d32572646df014a23a758d49bd83a15e492e31a6c81f6456365fbcb76b24597d",
        "basis:0 compile_report.json":
            "80125ace80af57884eedd7e8aecddcc48ead2c6e547356cea1de423fcb79e9ec",
        "basis:1 mps.json":
            "2d454236c4d7ffe4b821a668dd947a4c1317f8e004b00ba6873dbd4ab80da2ce",
        "basis:1 compile_report.json":
            "96621b9a251308a7894ba0f097200ef424e24580e9625a0908f4f904717143ac",
    },
    6: {
        "FullBitString":
            "b5d5865b05975c29ca8279bf307780b7e534b85c6d88d20bfc0333dcfb714248",
        "GMBitString":
            "e31575f8ae2241387b2d16c90ddf4a418a2ef1a034296787b3d6e88ff4357138",
        "GMMatrix":
            "035b0d9a8a52134ca2ce17a00ba34b61a36dcda303a1cf6a31b599260679068d",
        "basis:0 mps.json":
            "7f8ae8529701a6d44e120e9b8960f4d1b321e8f8790e50b53880a3906aa2b1dd",
        "basis:0 compile_report.json":
            "7ae8a5bc0bb7cb8fec0ec8857d5007ba8121247569ea6f37f70d60b1c9bce3d0",
        "basis:1 mps.json":
            "0af499e0dac8acb73c0cb968208500683f5a68d88bbfaf13b9016f75d04230a3",
        "basis:1 compile_report.json":
            "5e29d104f0965321b3428d156d986acd19217480bf640d630c19efa03792ae41",
    },
    7: {
        "FullBitString":
            "f84078a534bcf01d62b3fab24facc7c6163ba273e06018196b5a1caad60795b9",
        "GMBitString":
            "cbec3b2057aef250bd3f5d10d456c8a9d79afd6babe9a4dc0fd7d6d515aaf4f3",
        "GMMatrix":
            "6eb5d391b6cc99c8c836cf790e91e941128ba0c9677cbdfd412728352c8d9ce2",
        "basis:0 mps.json":
            "8f863eacb1628a13917bb19acf703ba52c3edd8ae1e4079381a38d36cd664ca3",
        "basis:0 compile_report.json":
            "b9c61bb71849686da941a0fe34face1cfbb1d4b4ffa58f9dece723f17a271d11",
        "basis:1 mps.json":
            "406680e886545a7a890ced4fbc23f90b472ff9d9fecf517c6877a8ab1a690b24",
        "basis:1 compile_report.json":
            "0793f584049e84d78cd14195e6f7db403b8b474e85c74a195d983ec16f52c066",
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
# (see the header).  Both files were re-pinned once more when the sweep moved
# to Dicke coordinates, and the report twice more, when the roundtrip
# reference became the register of c and when its check moved into the
# symmetric subspaces (see the header).
GOLDEN_BUILDER_COMPILE = {
    (5, "equatorial:0.7"): {
        "mps.json":
            "980077a14ab001d913759520491a14e67ca81c9a0be022df218bc62ebf44f6d6",
        "compile_report.json":
            "9075618e6486e8011273b281dacc1812f6caeac7b27ba67851f6ca9a9626b5a6",
    },
    (5, "amps:0.3,-0.2,0.5,0.4"): {
        "mps.json":
            "b76d0bf7c336daabc49fd2b4ce1e5b6772dd01a67f873b7e0b954b0f2b265e3b",
        "compile_report.json":
            "c2c1c6fc8fac5601ee9dcba0ad34f0906483f2a0adb098cb21b8db798f871071",
    },
    (8, "equatorial:0.7"): {
        "mps.json":
            "26d93f6db4a2a41d01def7dff5efff3798033daa48bd4bea959c8c9f739f0cb7",
        "compile_report.json":
            "bf0aaea82af0669160c82c9d30c1d5ea4730606688ba4399bd026a18bf68d058",
    },
    (8, "amps:0.3,-0.2,0.5,0.4"): {
        "mps.json":
            "294610dd7a4598e6b7ca3ce7d6ffbcdce0a4beea60065f97e7e88ec8cb7ec0f7",
        "compile_report.json":
            "ec62fab5571a32e0bf69b6edd6f76913a2efb1d7ac851685da2c3359ae6344fa",
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
