"""Golden SHA-256 digests of every file `prepare` and `compile` write.

The digests were computed before the pipeline moved to index arrays, from the
per-line implementation it replaced, by running in one fresh directory per M:

    gmclone prepare --clones M --out DIR
    gmclone compile --clones M --input basis:0 --out DIR   # then basis:1

so both compiles take the `gm_matrix` source.  For M = 8 and 9 only the
`prepare` stages are pinned (computed before the GMMatrix coefficients were
evaluated on the support alone).  The `prepare` stages of M = 10 and 11 were
pinned later, from the `prepare` that built every run of GMMatrix lines from
its own indices, before the runs were copied from one template per key.

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

When both SVD sweeps moved to Oseledets' order (the site keeps U and S W+
is carried forward, so each cut lists the Schmidt values of the state
truncated so far) and the builder compile moved off the SVD onto the
closed-form MPS of `builder.gm_mps` (bidiagonal counting sites, left
canonical, bonds in the Dicke label order), while the builder's roundtrip
check gained one refinement step and an extended-precision inside part,
the 24 `basis:` compile digests of M = 2..7 and the 8 builder digests
moved.  They were re-pinned once by running the commands above on the new
code.  Old and new agree in bond dimensions and retained ranks and in every
field of `compile_report.json` but the singular values and
`roundtrip_error` (which moved by at most 5.4e-15); the contracted states
agree to 1.3e-15, and every retained value equals the Schmidt values of
`oracles.schmidt_spectra` to 8.9e-16.  A builder cut now lists the D_k
values of its labels, with no rounding tail, and the exact zeros of its
sites print as `0`: the builder `mps.json` of M = 8 went from 72,082 to
51,077 bytes (amps input).  No `prepare` digest, no M = 1 digest and not
the `scaling.csv` of `sweep --clones 12` moved.

When the `basis:` compile of a GMMatrix stage moved off the SVD sweep of
the stage's c onto the builder's closed-form MPS (`builder.gm_mps` of |b>,
with the stage kept as the reference of `roundtrip_error`), the 24
`basis:` compile digests of M = 2..7 moved.  They were re-pinned once by
running the commands above on the new code.  Each new `basis:b mps.json`
digest equals the digest of the `mps.json` that `gmclone compile --clones M
--input basis:b` writes with no stage in `--out` (checked for M = 1..11).
Old and new agree in bond dimensions and retained ranks at M = 1..11 (and
at `--tol 0.3` for M = 1..8), and in every field of `compile_report.json`
but the singular values and `roundtrip_error`; the contracted states agree
to 2.3e-15.  `roundtrip_error` fell from at most 7.9e-15 to at most
4.9e-16 over M = 1..11.  No `prepare` digest, neither M = 1 compile, no
builder digest and not the `scaling.csv` of `sweep --clones 12` moved.

`prepare` digests are pure text and must hold on any platform.  `mps.json`
and `compile_report.json` carry floating-point arithmetic (the closed-form
sites and Schmidt values, and the sums of the roundtrip check); they were
produced with numpy 2.4.6 (OpenBLAS) on x86-64 Linux, and another BLAS or
LAPACK build may round the last digit differently.
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
            "16194e2ea8bf904eaeba383bd9faebf4526a954125ecf3688816ce38ab082f83",
        "basis:0 compile_report.json":
            "26e6333f58dba3bf29190ea9bc86be90264bc815158417b98368ccc7b138787c",
        "basis:1 mps.json":
            "646d8da2109140178756cf75ccfff640904712360b4f2c29a2aec5ff877e1a1b",
        "basis:1 compile_report.json":
            "b6cd0275b47bfb87596ffce75ec8ec80284fd2d1f0e1e40e28e4e39a1d99b4b9",
    },
    3: {
        "FullBitString":
            "e78972f45c14344fe300118dae2dea7bcd1279c62a8c9e46647847ff1cb3a7b7",
        "GMBitString":
            "98d44952c958011ebd753ae90e18735cf193936d07030d6ca590189803ce4ea5",
        "GMMatrix":
            "9564e49c4d2bd2b120da6541904cfdb23706b495d5a8c9c88aa30fbe396bb3dd",
        "basis:0 mps.json":
            "94e10513d5034ed036765e58dcd703f2630d3e639afc0fa1541e37cf1d77757e",
        "basis:0 compile_report.json":
            "7685d95333c679ed754ba15d332a9cfea1444229410e8c5edb035a3d6e9fc2b2",
        "basis:1 mps.json":
            "6259351ee3f55e17a4521658c3ab36c8a2fc2404758da188304dba30f9606000",
        "basis:1 compile_report.json":
            "233db4fbeea969773890523cbd33d194b445693790ef74d394a9623be273c9ab",
    },
    4: {
        "FullBitString":
            "337915d88d9b3a23d8b9238a639cf0d3959de2ccbf8e50f7cbee688b9ce910a8",
        "GMBitString":
            "e8156d158f24da9af45b3659c44f59af9c8bb8383a4968d581bd7649f0366e21",
        "GMMatrix":
            "b7996712e3f26a520cfdc873e83ed130b880adf301a23458dd0c184811605858",
        "basis:0 mps.json":
            "2238b67c4e2748217096ad078f9e4f046c1fb820ced87d35bcf607dbc0601a79",
        "basis:0 compile_report.json":
            "2e623b188f3b976c387bf216501aba2906d62db837d5719bb3d357fa09c057dc",
        "basis:1 mps.json":
            "ffe43c60b52c167a09b4164bb7fe446367356ea4132a9ab12ad3c2cf55996a39",
        "basis:1 compile_report.json":
            "c2ba5fdc24b5d5b81ba7f1c83f50a966dbee11d3ca53d25f9a424b1ecef0869a",
    },
    5: {
        "FullBitString":
            "ac90f2f2f4c7eedaccbefa722905664be8a29e92a918cfa4266f08e8de920a07",
        "GMBitString":
            "ce0ca21a2bab9b596d037a7fcde3466c4a07176b5ec6689a65cebb0974e90eb9",
        "GMMatrix":
            "1bc4431a631ac4fb68a099ae97bf148a8e23f91803b1b6b1b26a516ff8ed7f6e",
        "basis:0 mps.json":
            "b853acd5df664aeb16ea84a49c61925d6e2a409b3903bbea2dcc321717a8818f",
        "basis:0 compile_report.json":
            "2a7be242a0ff180553e278840f4d1d9a4e7812f6c6e814a9db81632b3d2da9e3",
        "basis:1 mps.json":
            "dcff77242bf0ee678d1e090feb02683e584cc2122ef94b945dbf9386b46998da",
        "basis:1 compile_report.json":
            "7b60552b685414e1ec00e2df86198f252207237eecf4c7b3355947bb9b841456",
    },
    6: {
        "FullBitString":
            "b5d5865b05975c29ca8279bf307780b7e534b85c6d88d20bfc0333dcfb714248",
        "GMBitString":
            "e31575f8ae2241387b2d16c90ddf4a418a2ef1a034296787b3d6e88ff4357138",
        "GMMatrix":
            "035b0d9a8a52134ca2ce17a00ba34b61a36dcda303a1cf6a31b599260679068d",
        "basis:0 mps.json":
            "6568424e93affe795ffb70be83016adfa9433b43aa1feb5867dc4139bc0ed2db",
        "basis:0 compile_report.json":
            "006c2b59b996a594215ef9c7627ef9ffe9e41fcf614c700e75a9903b75e4bd04",
        "basis:1 mps.json":
            "11b45e2cf0f3a2d4de5b3863e03e88001c4ca5ba40a90a0d71186b1e28273d0f",
        "basis:1 compile_report.json":
            "5855803ad1c5965dd5ebca170d69b522d3b6c8595dc5eae930fc43b6e4194fb6",
    },
    7: {
        "FullBitString":
            "f84078a534bcf01d62b3fab24facc7c6163ba273e06018196b5a1caad60795b9",
        "GMBitString":
            "cbec3b2057aef250bd3f5d10d456c8a9d79afd6babe9a4dc0fd7d6d515aaf4f3",
        "GMMatrix":
            "6eb5d391b6cc99c8c836cf790e91e941128ba0c9677cbdfd412728352c8d9ce2",
        "basis:0 mps.json":
            "fb22b764a0ae6c4bac589b1c98139efcc7fe2903f1b4ad83480e87c322da3420",
        "basis:0 compile_report.json":
            "74b69d4b63ecee33144b5e8e4871afdc0aa7648afa10a0fa1f126c44cfad8bf0",
        "basis:1 mps.json":
            "0b72ed23a500029d12f9247ba85e78e8a75bf2864b709126246b3562c570489c",
        "basis:1 compile_report.json":
            "09a7b97bdd87762b28caa282ede29efc065ea398f4a501da8bb5db604bbdb10d",
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
    10: {
        "FullBitString":
            "c66f929224a26aa5b59c660956abe6e0e197bdc258167647ce6078a64ac9aacc",
        "GMBitString":
            "26bf0c653dac67d23878ed0af3e0aecfa839aa869835aee6ccde0cdc91c8e2e1",
        "GMMatrix":
            "dccda7626e429a1fead8c0e4c7607e768b4cbd535a6e9ab0b3b2e8b8c03002f4",
    },
    11: {
        "FullBitString":
            "74cee534385bef532c83e1a17de7357bdc5824f8a32eec58aa343b755a9b074c",
        "GMBitString":
            "e335fc9e66f3cc35e5b5cc9da790069cbf5818f400d98bf5a91fac2f0083df28",
        "GMMatrix":
            "bf2d243e26a41aacadd92dab10a159fc9a5e9fb9109591ac5f744629603c519f",
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
# symmetric subspaces, and both once more when the compile moved onto the
# closed-form MPS (see the header).
GOLDEN_BUILDER_COMPILE = {
    (5, "equatorial:0.7"): {
        "mps.json":
            "2c4c537f3654032af57c56375d8f619527525632f49d08ea85f856c14dbb190d",
        "compile_report.json":
            "bd440379f4d340f2aba925efaaa7136342f9e133dc3a942ed8dd14bb6392eb79",
    },
    (5, "amps:0.3,-0.2,0.5,0.4"): {
        "mps.json":
            "81b3590a680e8e6bdc83aa89fb1699bffcddd226c4ee5508da9083f26e91d049",
        "compile_report.json":
            "dabc218cd6a60985b2f1056db0f510c5f50394e17965d7c51ebb74fa67c82506",
    },
    (8, "equatorial:0.7"): {
        "mps.json":
            "a57c64c3f603369a9334043d574ef099f35bed2163ac2d350b996d474021bfb8",
        "compile_report.json":
            "5b87efdb4624b87f5af9bcc22178cc88fee98863fa59dde9d7916ce0d24cd934",
    },
    (8, "amps:0.3,-0.2,0.5,0.4"): {
        "mps.json":
            "bc3291682fd7b40bb7211a59cca428e040ce05b468e85b8eb9e49c61bf79485c",
        "compile_report.json":
            "3d2eb1c4cdf721bd885544d82920530c3d81f12a8d39be548ecf86473e6451a5",
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
