"""Byte-identity guard for the audits: what `spircr audit` prints and what
run_all_audits reports, at ten shapes, with no fault and with each fault.

Each CLI case pins the exit code and the sha256 of stdout and of stderr; a
fault that cannot apply to the instance exits 2 with one line on stderr.
Each report case pins the sha256 of the reports' JSON, details included, or
of the SchemeError a fault that cannot apply raises. A change to the audits'
arithmetic that moves a verdict, a value, a witness or a detail fails here.
"""
import contextlib
import hashlib
import io
import json

import pytest

from spircr.audit import run_all_audits
from spircr.cli import main
from spircr.plan import SchemeParams
from spircr.scheme import SchemeError

EMPTY = hashlib.sha256(b"").hexdigest()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_result(n: int, k: int, q: int, fault: str | None) -> tuple[int, str, str]:
    argv = ["audit", "--n", str(n), "--k", str(k), "--q", str(q)]
    if fault:
        argv += ["--inject", fault]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, sha(out.getvalue()), sha(err.getvalue())


def reports_digest(n: int, k: int, q: int, fault: str | None) -> str:
    try:
        doc = [r.to_dict() for r in run_all_audits(SchemeParams.create(n, k, q), fault)]
    except SchemeError as e:
        doc = f"SchemeError: {e}"
    return sha(json.dumps(doc, sort_keys=True))


# (n, k, q, fault) -> (exit code, sha256 of stdout, sha256 of stderr)
CLI_AUDITS = {
    (1, 2, 2, None): (0, "0cc4d8825307f5c4a56b44b20e0f094400016c96c66c1812624699ce1d60ac92", EMPTY),
    (1, 2, 2, "seed-reuse"): (1, "7ab91bea8951cbd3bf3a28f0e568de3df17489b2a0b3412d34ed92e8d6bc5b79", EMPTY),
    (1, 2, 2, "unmask-one"): (1, "44f5e4b8185b148ba8d17ec62935da15091b1bdff188dfb7a756940ce4d60d13", EMPTY),
    (1, 2, 2, "bare-companion"): (2, EMPTY, "3f87e9b9f32b0d087d9db22c95ab5dba9c6b0d837b7a0f42f4d322cbd29c02c6"),
    (1, 4, 2, None): (0, "c252bec254872098a4a66f0db698527d291ad372e5aba10b1985a00ea32c87c8", EMPTY),
    (1, 4, 2, "seed-reuse"): (1, "6b3230feac5afff4300be08c5546b20591c4cd5a58fa78797090ac8df15ea14f", EMPTY),
    (1, 4, 2, "unmask-one"): (1, "82fc182720fa3069bed742557f56dec8a06f2e1ca5507b9b46350e2238f73d58", EMPTY),
    (1, 4, 2, "bare-companion"): (2, EMPTY, "3f87e9b9f32b0d087d9db22c95ab5dba9c6b0d837b7a0f42f4d322cbd29c02c6"),
    (1, 8, 2, None): (0, "f0560d323f5be46d304f997cf0fb7e902ada1d1d0806c3bb7c59dd8847963787", EMPTY),
    (1, 8, 2, "seed-reuse"): (1, "c66d01af4e91f8e8e5fe67fc1eb75af47f09ffe127ce8aab625e86250f4087f1", EMPTY),
    (1, 8, 2, "unmask-one"): (1, "e42c8f9f6268008bbbbaff7b2a1e5da9fb4cd98553866468d1f2572b551b7897", EMPTY),
    (1, 8, 2, "bare-companion"): (2, EMPTY, "3f87e9b9f32b0d087d9db22c95ab5dba9c6b0d837b7a0f42f4d322cbd29c02c6"),
    (1, 5, 257, None): (0, "2f5219dd36d200ee8e868a7f80da7879671fe8e5ed2e0b1599d6500e9aa9f63a", EMPTY),
    (1, 5, 257, "seed-reuse"): (1, "57d0afac03cc4e22d635a4ea7b4a44ac730b876c681bbbfc46edf81a505965cd", EMPTY),
    (1, 5, 257, "unmask-one"): (1, "100037d7d3cda7aa4ed203405562d75c1f2766ab39c7c5b31f066d0e45400013", EMPTY),
    (1, 5, 257, "bare-companion"): (2, EMPTY, "3f87e9b9f32b0d087d9db22c95ab5dba9c6b0d837b7a0f42f4d322cbd29c02c6"),
    (2, 2, 2, None): (0, "a83c743e6e010862b7d3358119c4c07feeef7986cb7e025e656d174deb71238f", EMPTY),
    (2, 2, 2, "seed-reuse"): (1, "a587d836205e48eb419b7bb173a893508498d7d252d5e64dc5bf9e167b38d8ac", EMPTY),
    (2, 2, 2, "unmask-one"): (1, "88daf6deb1ec87660be2dbba554143d48772e6209efa0709ee67cedfc4c7c0de", EMPTY),
    (2, 2, 2, "bare-companion"): (1, "53f45dcecd0d731519bc404894f5568ecd479e8f21a7f775070e453d8e410a2c", EMPTY),
    (2, 3, 2, None): (0, "70c8f7d192c12c8496298308000abe49be98e4ac4d15bc019f9aec09837ccb53", EMPTY),
    (2, 3, 2, "seed-reuse"): (1, "b608c33f16217c7ac865aa228fcadad588fe40c484845c852a1f3f5e316109a0", EMPTY),
    (2, 3, 2, "unmask-one"): (1, "b613dea1cc75355d1043606292fcd42b7f313eea1ab0442c8852c071e6a004af", EMPTY),
    (2, 3, 2, "bare-companion"): (1, "3d8beb850d1ecfd84e46f4bf6d3cbc1828d285c8f9bbe01f55d54e3e2ad15740", EMPTY),
    (2, 2, 257, None): (0, "094b47c78f8a1afe3556c6ab8eaa6e7fca15f1a6bf6a3df2f8abbf4a4ad27906", EMPTY),
    (2, 2, 257, "seed-reuse"): (1, "a587d836205e48eb419b7bb173a893508498d7d252d5e64dc5bf9e167b38d8ac", EMPTY),
    (2, 2, 257, "unmask-one"): (1, "88daf6deb1ec87660be2dbba554143d48772e6209efa0709ee67cedfc4c7c0de", EMPTY),
    (2, 2, 257, "bare-companion"): (1, "50b3d70c348771ac03c2c4c3b5b1507a93856d68cff00fa9570a76409d3d3b34", EMPTY),
    (3, 2, 2, None): (0, "d526e57a1616dbbc2e51064c91d051cdb1e35d4834a3b2560092a9c31606ab5b", EMPTY),
    (3, 2, 2, "seed-reuse"): (1, "df91957f8a15c4dea7b3ce7b4e31694a090f7a8d101746f21391c916277b9bff", EMPTY),
    (3, 2, 2, "unmask-one"): (1, "4c54b1e1503ba17a9edc1d5640b7ea25ff0a0baf598e98167fe618162937d16d", EMPTY),
    (3, 2, 2, "bare-companion"): (1, "2e085a780d3d3fc2f16d3e4723294f8a3b711ce3b6e1e702bf590d50b2bece98", EMPTY),
    (3, 3, 257, None): (0, "c6af726759555ddc68f61c10f125f416bae1e4350fe09fafde3efd7c26da8cdc", EMPTY),
    (3, 3, 257, "seed-reuse"): (1, "dfb1b9ddc74de0f166bc248664b2d47b1f23ef69e42cd18e8bca4619be47a94b", EMPTY),
    (3, 3, 257, "unmask-one"): (1, "e1f6385905ad56f2c252e5ab80b7211b5ea839c7410fc02a12282e7be3701b9e", EMPTY),
    (3, 3, 257, "bare-companion"): (1, "347eeb13b3486f9eb8b0e102a76d40c2117efdb5d4332a1dad19e1e70acf41dc", EMPTY),
    (2, 4, 2, None): (0, "3c9328334a405a288d1974565a591f43b51c414f2a6068926e5f6d6ed1036e13", EMPTY),
    (2, 4, 2, "seed-reuse"): (1, "3e802b1cc2e632ec5be939c19639599a8dfdaf1ef8c8254398bf8ef0bbedad56", EMPTY),
    (2, 4, 2, "unmask-one"): (1, "b8b4a87bfd715ce9c65f10b4bcc9d3739f843b816d7f2850a6ab7ef9a1fbe93d", EMPTY),
    (2, 4, 2, "bare-companion"): (1, "c18fa4e5efba11f2cb160d4df5e9cb8ad8b7f89ed4a9f8230322397a11fa4558", EMPTY),
}

# (n, k, q, fault) -> sha256 of the reports' JSON
REPORTS = {
    (1, 2, 2, None): "4f39c4eb38d50d472941767e5722029170375df88f2230775dad38e8425d06c3",
    (1, 2, 2, "seed-reuse"): "13a32b4bc0a6e0b4c3f089d96d16ac60d89843f9a0be10faaaeeb2631b73eff0",
    (1, 2, 2, "unmask-one"): "3e1824d966d67fcbdc13ec69b5c73a8ac040138cc1e41eb8cfc7bc856778d2ae",
    (1, 2, 2, "bare-companion"): "89906ac2ed9519da4e839ee2cddb43b012a91f6795ee6d6e964af11fd9327766",
    (1, 4, 2, None): "2cebf47599a0457e202e5bb7e5ddfef884475163061e83452e086d9250d596af",
    (1, 4, 2, "seed-reuse"): "4e80233ceb4c966c94eb5c18b75fd37be11981191b9db19e3b99979be13ba986",
    (1, 4, 2, "unmask-one"): "b98af8c771ba199fc8edcdf3e338d1e135d0cd52b49cdea759f941919b07d2ab",
    (1, 4, 2, "bare-companion"): "89906ac2ed9519da4e839ee2cddb43b012a91f6795ee6d6e964af11fd9327766",
    (1, 8, 2, None): "01967cc075366800ca34b028a10e289a084f9233743b7a93d46ebe8f1c013c8f",
    (1, 8, 2, "seed-reuse"): "5fe7d71341ece0c5e39143d660b10bf0bdd0470bd20f15d76017bdc579d2aea3",
    (1, 8, 2, "unmask-one"): "c66913f922449f37a3cb532c66b17dbf52d1a9a7c50c4af9fb40eb1bf188454c",
    (1, 8, 2, "bare-companion"): "89906ac2ed9519da4e839ee2cddb43b012a91f6795ee6d6e964af11fd9327766",
    (1, 5, 257, None): "34aa8ab265417ad264fca69c02c7fb537d624fd5ea09979ccc2120a921310a03",
    (1, 5, 257, "seed-reuse"): "0c7c3ba346f8feef81e7f1a882a4dd054d4248d9e523794e660f5c6bcb54abe6",
    (1, 5, 257, "unmask-one"): "674ec8c785dfd252d8763796233f7d1e61b4d5f4fe67727919149c683e253394",
    (1, 5, 257, "bare-companion"): "89906ac2ed9519da4e839ee2cddb43b012a91f6795ee6d6e964af11fd9327766",
    (2, 2, 2, None): "a0335018b19e9e1a31fd5358d8ffb13ef683cf45ede4306bb2b2766b8fa1eaa1",
    (2, 2, 2, "seed-reuse"): "ed64ed6bfabb5a83bcbef1a4da61f08da98da6b06f208aca3958da1f593af860",
    (2, 2, 2, "unmask-one"): "939d2d2be691c0cfcd5efd6fd04083c639cdf71387606ec12426cf4a09fdf050",
    (2, 2, 2, "bare-companion"): "951f97d03a5a336a7ff5ceaba8b6db04757cbf98ed42687d03f4a7873911177a",
    (2, 3, 2, None): "ed4ebe36bac86f31529a0e177d767a300b1ad2e86cfbc02140c05ad5518d4288",
    (2, 3, 2, "seed-reuse"): "d26220f67820e5dcb36dd779e426fd6f5aeddbb2dc11dbd7683f33a953a41b5e",
    (2, 3, 2, "unmask-one"): "15de1c8066d8d74c3dd8445061ad8f3a7693a6b390d9929a9621f9477adadca3",
    (2, 3, 2, "bare-companion"): "fdd06732faedcfddb12eba550abacd11bd098d1b2a79c4cea4557d8383a1ce6e",
    (2, 2, 257, None): "d0fe0f57d01b98b9445f7e3a882bee124f460ef7b1c82dbc6a5bba1bbe4b952e",
    (2, 2, 257, "seed-reuse"): "39f0888c0f9228397f871f9e3ccba802da8a25c74deb6bc1d1a33d5340ba04ba",
    (2, 2, 257, "unmask-one"): "5ea5df08dd9dd31cb9ab7422e1d2a39fb82110b620d09bdc339921e547a1dad6",
    (2, 2, 257, "bare-companion"): "e28563f537355e1c8646d4ba0b06de13cec4bc64dcde7bd26cab3db7a5bfc31d",
    (3, 2, 2, None): "5a0c7ca92042edfcfd5bec196315d197ae7ddda91eda07f229b1a94617bb2b9f",
    (3, 2, 2, "seed-reuse"): "0a4bc425fe082a410961d12b97cff553cd40b375c0cb4cb599aa3e11d09d0426",
    (3, 2, 2, "unmask-one"): "39478076cb54e533c420f60b649029e03fb0a607f7f50db91c677df61f4c359c",
    (3, 2, 2, "bare-companion"): "9e4e6ee4eeade00cf56333b218b7435bdd3510894ae0f57e296be2dcffa4acef",
    (3, 3, 257, None): "54a1e7563312c6e837ce5d01c8f9aa93bc329568065e7d8549bcc3f13d1d4309",
    (3, 3, 257, "seed-reuse"): "3ba21f637c15a7ed0893f187beca019ac27a4dc7c3d250fd12d6c8790681da7d",
    (3, 3, 257, "unmask-one"): "3e97ad78743ad6ebb414d12184c972612abe4615d75d11271998796643a9d004",
    (3, 3, 257, "bare-companion"): "6493546bf88f71d761b3d4777211c573c526cb9fc671e1ab19e05d60ca0674f8",
    (2, 4, 2, None): "19feb36a6138c7f4d75e3a7f52fb24f6e50a760c5f087c791bd81c49d2ff9063",
    (2, 4, 2, "seed-reuse"): "32baa841d2f9d23739717ec6c6619c4b7d1de4692c43fae0e79a0999a204b220",
    (2, 4, 2, "unmask-one"): "47b08713365c91b0c8b0dc4ecc852e9ed32102d935a99f4ec1799f1baa3e4d10",
    (2, 4, 2, "bare-companion"): "128cb06e385a154d4e48ad37d20a2a246948cd676080726ffbd7e5ca4747f81e",
}


def _id(case) -> str:
    n, k, q, fault = case
    return f"{n}-{k}-{q}-{fault or 'honest'}"


@pytest.mark.parametrize("case", list(CLI_AUDITS), ids=_id)
def test_audit_cli_bytes(case):
    assert cli_result(*case) == CLI_AUDITS[case]


@pytest.mark.parametrize("case", list(REPORTS), ids=_id)
def test_audit_report_bytes(case):
    assert reports_digest(*case) == REPORTS[case]


def test_every_fault_that_cannot_apply_exits_2():
    refused = [case for case, (code, _, _) in CLI_AUDITS.items() if code == 2]
    assert refused == [(1, k, q, "bare-companion") for k, q in ((2, 2), (4, 2), (8, 2), (5, 257))]
