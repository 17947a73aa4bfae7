//! Ablation: the SZ backend stages. Huffman-only vs Huffman+LZSS, and
//! pure-Lorenzo (SZ 1.4-style) vs Lorenzo+regression (SZ 2-style), on
//! one dense smooth field — quantifying what each stage buys.

use tac_amr::min_max;
use tac_codec::{CodecConfig, Dims, ScalarCodec, SzCodec, TacDtype};
use tac_core::ErrorBound;
use tac_nyx::{synthesize, FieldKind};

fn main() {
    let n = 64;
    let data = synthesize(FieldKind::BaryonDensity, n, 42);
    let dims = Dims::D3(n, n, n);
    let (min, max) = min_max(&data).expect("a non-empty field");
    println!("Ablation: codec stages on a {n}^3 baryon-density field");
    println!("{:<34} {:>12} {:>8}", "configuration", "bytes", "CR");
    for rel in [1e-3, 1e-4, 1e-5] {
        let abs_eb = ErrorBound::Rel(rel)
            .resolve_for(min, max, TacDtype::F64)
            .expect("a positive relative bound");
        let cfg = CodecConfig::abs(abs_eb);
        for (label, lossless, regression) in [
            ("full (regression + LZSS)", true, true),
            ("no LZSS", false, true),
            ("no regression (SZ1.4-style)", true, false),
            ("neither", false, false),
        ] {
            let sz = SzCodec {
                lossless,
                regression,
            };
            let bytes = sz.compress(&data, None, dims, &cfg).unwrap();
            println!(
                "rel {rel:.0e} {label:<26} {:>12} {:>8.1}",
                bytes.len(),
                (n * n * n * 8) as f64 / bytes.len() as f64
            );
        }
        println!();
    }
    println!("The regression stage is what lifts smooth-data CRs past the Lorenzo\nfeedback floor (~1.5 bits/value); LZSS then squeezes the skewed\nHuffman stream. Both are needed for paper-regime ratios.");
}
