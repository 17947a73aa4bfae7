//! Pins every generated input bit for bit.
//!
//! The benchmark, the figure harnesses and the goldens all regenerate
//! their inputs from the catalog, so a change to `tac-nyx` or `tac-fft`
//! that moves one bit of a dataset moves every metric measured on it.
//! Speed-ups to the generator must keep these digests; a change that
//! alters the inputs on purpose re-baselines them and says so.
//!
//! ```sh
//! cargo test -q -p tac-nyx --test pinned_inputs                          # scale 16, all entries and fields
//! cargo test -q --release -p tac-nyx --test pinned_inputs -- --ignored   # the benchmark's inputs, ~10 s
//! ```

use tac_amr::AmrDataset;
use tac_nyx::{entry, FieldKind, CATALOG};

/// Seed the benchmark generates its inputs with.
const SEED: u64 = 14;

/// FNV-1a 64 over every level, finest first: the mask as
/// [`tac_amr::BitMask::to_bytes`] writes it, then each value's bits,
/// little-endian.
fn digest(ds: &AmrDataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for level in ds.levels() {
        eat(&level.mask().to_bytes());
        for v in level.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Digests at scale 16, seed 14, per entry in `FieldKind::all()` order.
const SCALE_16: [(&str, [u64; 6]); 7] = [
    (
        "Run1_Z10",
        [
            0x5448_1ff9_a25d_46a0,
            0xf043_b613_1bc1_30fa,
            0x4b55_9a73_1005_0503,
            0x81f5_b717_f40e_f3d1,
            0x588b_2a3f_8bba_8ede,
            0x9f2d_5ab3_49fa_1a91,
        ],
    ),
    (
        "Run1_Z5",
        [
            0x6a0c_e41a_362e_8017,
            0x740e_0b1d_7e8e_ba13,
            0xc051_672e_216c_a938,
            0x7e5c_a0c0_2290_a71f,
            0x099b_0b70_dabb_4cc7,
            0x0c95_09dc_40ef_8414,
        ],
    ),
    (
        "Run1_Z3",
        [
            0xb042_ab47_1ae5_16b1,
            0xf488_00c5_7d59_3260,
            0xab86_efe0_daae_0ff1,
            0xff79_059a_f565_80aa,
            0xe4dd_4f94_8c65_9d86,
            0xb753_6715_9387_5d51,
        ],
    ),
    (
        "Run1_Z2",
        [
            0x0f56_f6f3_4685_c817,
            0x95b8_2af9_051a_28b2,
            0x1f9e_5f5d_42dd_e9f4,
            0x41b4_74bf_1c05_e4d9,
            0x5a3a_a8bb_96ad_49ca,
            0xcde6_f253_4fc3_5a01,
        ],
    ),
    (
        "Run2_T2",
        [
            0xdfa8_e49f_1bd8_960b,
            0xe0d4_11c2_6bd3_eb3a,
            0x4514_1043_4fe0_3deb,
            0x7b5f_bbd5_ec6c_7a77,
            0x0993_fa87_a444_0dc2,
            0xef8f_55bc_c968_5797,
        ],
    ),
    (
        "Run2_T3",
        [
            0x4cab_86bc_bbce_f236,
            0xf6da_854e_c26c_cefb,
            0x657f_2473_18e9_d764,
            0x6bc8_ac26_cdca_8586,
            0x5240_49a0_b612_554c,
            0x64ac_46fc_e01b_0d1f,
        ],
    ),
    (
        "Run2_T4",
        [
            0x5ad2_ca71_2048_e38a,
            0x5f56_ad46_e7a3_a5c4,
            0x664e_0272_21ef_377b,
            0x5905_ef53_db11_dda2,
            0x0998_ec61_27d6_8447,
            0x6ff3_a7aa_6e89_e112,
        ],
    ),
];

#[test]
fn catalog_at_scale_16_is_pinned() {
    assert_eq!(SCALE_16.len(), CATALOG.len());
    let mut moved = Vec::new();
    for (e, (name, want)) in CATALOG.iter().zip(SCALE_16) {
        assert_eq!(e.name, name);
        for (kind, want) in FieldKind::all().into_iter().zip(want) {
            let got = digest(&e.generate(kind, 16, SEED));
            if got != want {
                moved.push(format!("{name} {kind:?}: {got:#018x}, pinned {want:#018x}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "generated inputs moved:\n{}",
        moved.join("\n")
    );
}

/// The benchmark's five inputs (`z10_tac` and `z10_tac_w2` share one) at
/// their real sizes: `VelocityX`, seed 14.
#[test]
#[ignore = "generates four 256^3 datasets; run in release"]
fn benchmark_inputs_are_pinned() {
    let pinned = [
        ("Run1_Z10", 2, 0xabad_fbd4_d0e2_554b),
        ("Run1_Z5", 2, 0x13ba_7434_f502_012a),
        ("Run1_Z3", 2, 0xc5f0_f098_c191_3b26),
        ("Run2_T4", 4, 0xd295_f1b0_8944_0fbb),
    ];
    for (name, scale, want) in pinned {
        let e = entry(name).expect("catalog entry");
        let got = digest(&e.generate(FieldKind::VelocityX, scale, SEED));
        assert_eq!(got, want, "{name} at scale {scale}: {got:#018x}");
    }
}
