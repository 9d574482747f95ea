"""Ablation: protection-scheme sweep (parity, SEC-DED, DEC-TED, CRC).

The paper evaluates parity and SEC-DED; DEC-TED and CRC are the natural
extension points its Sec. VIII discussion raises (stronger correction vs
detection-only codes).  This sweep measures all four over 1x1-8x1 faults
with x2 logical interleaving and checks the coding-theory orderings:

* DEC-TED corrects everything up to 4 adjacent bits (2 per word) — zero AVF
  for small modes where SEC-DED already detects;
* CRC-8 (detection-only) never produces SDC for any Mx1 mode up to 8;
* stronger codes never have more SDC than weaker ones.
"""

import pytest

from repro.core import SCHEMES, FaultMode, Interleaving

MODES = (1, 2, 3, 4, 6, 8)
SCHEME_NAMES = ("none", "parity", "secded", "dected", "crc8")


def _measure(study_of):
    study = study_of("minife")
    table = {}
    for name in SCHEME_NAMES:
        per_mode = {}
        for m in MODES:
            res = study.avf(
                "l1", FaultMode.linear(m), SCHEMES[name],
                style=Interleaving.LOGICAL, factor=2,
            )
            per_mode[m] = (res.due_avf, res.sdc_avf)
        table[name] = per_mode
    return table


@pytest.mark.benchmark(group="ablation")
def test_ablation_schemes(benchmark, study_of, report):
    table = benchmark.pedantic(_measure, args=(study_of,), rounds=1, iterations=1)
    lines = [f"{'scheme':<8} " + " ".join(
        f"{'DUE' + str(m) + 'x1':>9} {'SDC' + str(m) + 'x1':>9}" for m in MODES
    )]
    for name in SCHEME_NAMES:
        cells = []
        for m in MODES:
            d, s_ = table[name][m]
            cells.append(f"{d:9.4f} {s_:9.4f}")
        lines.append(f"{name:<8} " + " ".join(cells))
    report("ablation_schemes", lines)

    for m in MODES:
        none_due, none_sdc = table["none"][m]
        par_due, par_sdc = table["parity"][m]
        sec_due, sec_sdc = table["secded"][m]
        dec_due, dec_sdc = table["dected"][m]
        crc_due, crc_sdc = table["crc8"][m]
        # No protection: everything ACE is SDC, nothing is detected.
        assert none_due == 0.0
        # CRC-8 detects every Mx1 burst here: zero SDC at every mode.
        assert crc_sdc == 0.0
        # Correction strength ordering on SDC: dected <= secded.
        assert dec_sdc <= sec_sdc + 1e-12
        # With x2 interleaving, an Mx1 fault leaves ceil(M/2) <= 4 bits per
        # word: DEC-TED corrects M <= 4 completely.
        if m <= 4:
            assert dec_due == 0.0 and dec_sdc == 0.0
    # SEC-DED corrects single bits; parity only detects them.
    assert table["secded"][1] == (0.0, 0.0)
    assert table["parity"][1][0] > 0.0
