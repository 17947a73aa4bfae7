//! Error-map visualisation (paper Figs. 7 and 12): compresses one AMR
//! level with two strategies and writes per-slice compression-error maps
//! as PGM images, where brighter means more error. Reproduces the visual
//! comparison of NaST vs OpST (sparse) and ZF vs GSP (dense).
//!
//! ```sh
//! cargo run --release -p tac-bench --example error_map
//! # writes target/error_maps/*.pgm
//! ```

use std::io::Write;
use tac_core::ErrorBound;
use tac_core::{compress_level_t, decompress_level_t, resolve_level_eb_for, Strategy, TacConfig};
use tac_nyx::{entry, FieldKind};

fn main() {
    let out_dir = std::path::Path::new("target/error_maps");
    std::fs::create_dir_all(out_dir).expect("create output dir");

    let ds = entry("Run1_Z10")
        .expect("catalog entry")
        .generate(FieldKind::BaryonDensity, 8, 3);
    let cfg = TacConfig::default();

    // Fig. 7: the sparse fine level (23%), NaST vs OpST.
    let fine = &ds.levels()[0];
    let eb_fine =
        resolve_level_eb_for(ds.dtype(), ErrorBound::Rel(4.8e-4), 1.0, fine.value_range()).unwrap();
    for strategy in [Strategy::NaST, Strategy::OpST] {
        render(fine, strategy, eb_fine, &cfg, out_dir);
    }

    // Fig. 12: the dense coarse level (77%), ZF vs GSP.
    let coarse = &ds.levels()[1];
    let eb_coarse = resolve_level_eb_for(
        ds.dtype(),
        ErrorBound::Rel(6.7e-3),
        1.0,
        coarse.value_range(),
    )
    .unwrap();
    for strategy in [Strategy::ZeroFill, Strategy::Gsp] {
        render(coarse, strategy, eb_coarse, &cfg, out_dir);
    }

    println!("\nwrote error maps to {}", out_dir.display());
}

/// Compresses `level` with `strategy`, prints CR/PSNR, and writes the
/// central z-slice's |error| map as a PGM.
fn render(
    level: &tac_amr::AmrLevel,
    strategy: Strategy,
    abs_eb: f64,
    cfg: &TacConfig,
    out_dir: &std::path::Path,
) {
    let cl = compress_level_t(level, strategy, abs_eb, cfg).expect("compress level");
    let recon = decompress_level_t::<f64>(&cl, level.mask()).expect("decompress level");
    let dim = level.dim();

    // CR counts the present cells; PSNR over present cells.
    let present = level.num_present();
    let cr = (present * 8) as f64 / cl.total_bytes() as f64;
    let mut sum_sq = 0.0;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in level.mask().iter_ones() {
        let e = level.data()[i] - recon.data()[i];
        sum_sq += e * e;
        lo = lo.min(level.data()[i]);
        hi = hi.max(level.data()[i]);
    }
    let mse = sum_sq / present as f64;
    let psnr = 20.0 * (hi - lo).log10() - 10.0 * mse.log10();
    println!(
        "{:<9} dim {:>4}  density {:>5.1}%  CR {:>7.1}  PSNR {:>6.2} dB",
        format!("{strategy:?}"),
        dim,
        level.density() * 100.0,
        cr,
        psnr
    );

    // Central slice |error| map, normalized to the error bound (so the
    // images of two strategies share a scale).
    let z = dim / 2;
    let mut pgm = Vec::with_capacity(dim * dim * 4 + 64);
    writeln!(pgm, "P2\n{dim} {dim}\n255").unwrap();
    for y in 0..dim {
        let mut row = String::with_capacity(dim * 4);
        for x in 0..dim {
            let i = x + dim * (y + dim * z);
            let err = (level.data()[i] - recon.data()[i]).abs();
            let shade = ((err / abs_eb).min(1.0) * 255.0) as u8;
            row.push_str(&format!("{shade} "));
        }
        writeln!(pgm, "{row}").unwrap();
    }
    let path = out_dir.join(format!(
        "{}_z{z}.pgm",
        format!("{strategy:?}").to_lowercase()
    ));
    std::fs::write(&path, pgm).expect("write pgm");
}
