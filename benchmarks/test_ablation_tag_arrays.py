"""Ablation: tag-array vulnerability vs data-array vulnerability.

The paper measures data arrays; its infrastructure extends naturally to
address-based structures (Biswas et al., ref [7]).  This ablation measures
the L1 tag array under the conservative address-structure model and checks
the expected relations:

* per bit, tags are *more* vulnerable than data (a tag is ACE while any
  byte of its 64-byte line is ACE);
* the MB/SB behaviour (union effect, interleaving benefit) carries over.
"""

import pytest

from repro.core import FaultMode, NoProtection, Parity

WORKLOADS = ("matmul", "srad", "minife")


def _measure(study_of):
    rows = {}
    for wl in WORKLOADS:
        study = study_of(wl)
        data_sb = study.avf("l1", FaultMode.linear(1), NoProtection()).sdc_avf
        tag_sb = study.avf("l1.tags", FaultMode.linear(1), NoProtection()).sdc_avf
        tag_2x1 = study.avf("l1.tags", FaultMode.linear(2), Parity()).sdc_avf
        tag_2x1_ilv = study.avf(
            "l1.tags", FaultMode.linear(2), Parity(), factor=2
        ).sdc_avf
        rows[wl] = (data_sb, tag_sb, tag_2x1, tag_2x1_ilv)
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_tag_arrays(benchmark, study_of, report):
    rows = benchmark.pedantic(_measure, args=(study_of,), rounds=1, iterations=1)
    lines = [
        f"{'workload':<10} {'data SB':>9} {'tag SB':>9} "
        f"{'tag 2x1 SDC':>12} {'tag 2x1 SDC x2':>15}"
    ]
    for wl, (d, t, t2, t2i) in rows.items():
        lines.append(f"{wl:<10} {d:9.4f} {t:9.4f} {t2:12.4f} {t2i:15.4f}")
    report("ablation_tag_arrays", lines)

    for wl, (data_sb, tag_sb, tag_2x1, tag_2x1_ilv) in rows.items():
        # Tags at least as vulnerable per bit as the data they guard.
        assert tag_sb >= data_sb - 1e-12, wl
        # Interleaving the tag array removes the parity-defeating 2x1 SDC.
        assert tag_2x1_ilv == 0.0, wl
        assert tag_2x1 >= 0.0
