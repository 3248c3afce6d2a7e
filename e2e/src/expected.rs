//! Committed expectations: pass 0's report digest and confirmed races for
//! each workload at full size, for seeds 1 to 10 (1 is the default). A
//! run at a listed seed fails its correctness check on any mismatch; runs
//! at other seeds rely on the checks that need no stored answer. Regenerate
//! a row from the `expect:` line a run prints, and only when the reports
//! are meant to change.

pub struct Expectation {
    pub workload: &'static str,
    pub seed: u64,
    pub confirmed: u64,
    pub digest: u64,
}

pub const EXPECTED: &[Expectation] = &[
    row("table1", 1, 78, 0x48c4_0bed_e171_f1d1),
    row("table1", 2, 78, 0xc1d3_86b1_66a4_9149),
    row("table1", 3, 78, 0xb014_ec95_663f_7049),
    row("table1", 4, 78, 0xeb74_c2a9_601c_f64d),
    row("table1", 5, 78, 0x0f8f_032f_e9a6_66a2),
    row("table1", 6, 78, 0x59ca_0676_a2e6_2dba),
    row("table1", 7, 78, 0xd429_0096_7775_cee4),
    row("table1", 8, 78, 0xee1c_b9bc_3055_41a0),
    row("table1", 9, 78, 0xe4cd_3732_a31e_2c1c),
    row("table1", 10, 78, 0xcff2_9d47_1244_c918),
    row("long-prologue", 1, 140, 0xb821_243c_f169_fece),
    row("long-prologue", 2, 140, 0x9ce4_1ab2_6716_f812),
    row("long-prologue", 3, 140, 0xefcf_929f_6053_3a96),
    row("long-prologue", 4, 140, 0x3ebe_adbc_e436_f3fa),
    row("long-prologue", 5, 140, 0xfcaa_a2e7_b32d_798e),
    row("long-prologue", 6, 140, 0xa157_d816_6321_d3e2),
    row("long-prologue", 7, 140, 0xd2bb_fadf_aa35_cf86),
    row("long-prologue", 8, 140, 0xc847_a12b_56cf_826a),
    row("long-prologue", 9, 140, 0x0299_959c_5c4d_a6de),
    row("long-prologue", 10, 140, 0x4487_bf90_9b11_82d4),
    row("campaign", 1, 74, 0x0e1e_ac54_cf07_6afd),
    row("campaign", 2, 74, 0x3a46_80c2_3dda_8643),
    row("campaign", 3, 74, 0xf254_1cae_ba24_912e),
    row("campaign", 4, 72, 0x3035_f776_fbc9_80c5),
    row("campaign", 5, 73, 0xaaba_6155_d08b_a1ed),
    row("campaign", 6, 73, 0x291d_0078_322f_4e88),
    row("campaign", 7, 72, 0xa447_fb88_2ddc_17a8),
    row("campaign", 8, 71, 0xffe7_789d_88e2_cb6a),
    row("campaign", 9, 71, 0x6728_b467_3331_bc68),
    row("campaign", 10, 74, 0x0667_811f_2460_6851),
];

const fn row(workload: &'static str, seed: u64, confirmed: u64, digest: u64) -> Expectation {
    Expectation {
        workload,
        seed,
        confirmed,
        digest,
    }
}

pub fn lookup(workload: &str, seed: u64) -> Option<&'static Expectation> {
    EXPECTED
        .iter()
        .find(|row| row.workload == workload && row.seed == seed)
}
