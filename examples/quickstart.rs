//! Quickstart: generate a small synthetic AMR cosmology snapshot,
//! compress it with TAC, and inspect the results.
//!
//! ```sh
//! cargo run --release -p tac-bench --example quickstart
//! ```

use tac_analysis::amr_distortion;
use tac_core::ErrorBound;
use tac_core::{compress_dataset_t, decompress_dataset_par_t, Method, Parallelism, TacConfig};
use tac_nyx::{entry, FieldKind};

fn main() {
    // 1. Generate a stand-in for the paper's Run1_Z10 snapshot (two AMR
    //    levels, 23% / 77% density) at 1/8 scale: 64^3 fine, 32^3 coarse.
    let dataset =
        entry("Run1_Z10")
            .expect("catalog entry")
            .generate(FieldKind::BaryonDensity, 8, 42);
    dataset.validate().expect("valid tree-based AMR");

    println!("dataset      : {}", dataset.name());
    println!("levels       : {}", dataset.num_levels());
    for (l, level) in dataset.levels().iter().enumerate() {
        println!(
            "  level {l}: {:>4}^3 grid, density {:>6.2}%",
            level.dim(),
            level.density() * 100.0
        );
    }
    println!("present cells: {}", dataset.total_present());

    // 2. Compress with TAC: value-range-relative error bound of 1e-4,
    //    strategies picked per level by the density filter.
    let cfg = TacConfig::with_error_bound(ErrorBound::Rel(1e-4));
    let compressed = compress_dataset_t(&dataset, &cfg, Method::Tac).expect("compression");

    let stats = compressed.stats();
    println!("\n--- TAC compression ---");
    println!("strategies   : {:?}", compressed.strategies().unwrap());
    println!("payload      : {} bytes", compressed.payload_bytes());
    println!("ratio        : {:.1}x", stats.ratio());
    println!("bit rate     : {:.3} bits/value", stats.bit_rate());

    // 3. Serialize / parse the container (what you would write to disk).
    let bytes = compressed.to_bytes();
    let parsed = tac_core::CompressedDataset::from_bytes(&bytes).expect("parse container");

    // 4. Decompress and measure distortion over the present cells.
    let restored =
        decompress_dataset_par_t::<f64>(&parsed, Parallelism::Serial).expect("decompression");
    let d = amr_distortion(&dataset, &restored);
    println!("\n--- reconstruction quality ---");
    println!("PSNR         : {:.2} dB", d.psnr);
    println!("max |error|  : {:.3e}", d.max_abs_error);
    println!("value range  : {:.3e}", d.value_range);
    assert!(d.max_abs_error <= 1e-4 * d.value_range * (1.0 + 1e-9));
    println!("\nerror bound respected ✓");
}
