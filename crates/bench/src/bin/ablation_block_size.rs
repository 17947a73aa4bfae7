//! Ablation: unit-block size sweep for OpST / AKDTree / NaST on the
//! Run1_Z10 fine level — the design-choice study DESIGN.md calls out
//! (the paper fixes 16^3 on 512^3 grids; this shows the trade-off).

use tac_bench::{default_scale, load_dataset};
use tac_core::ErrorBound;
use tac_core::{compress_level_t, decompress_level_t, resolve_level_eb_for, Strategy, TacConfig};

fn main() {
    let ds = load_dataset("Run1_Z10", default_scale(), 10);
    let fine = &ds.levels()[0];
    let eb =
        resolve_level_eb_for(ds.dtype(), ErrorBound::Rel(1e-4), 1.0, fine.value_range()).unwrap();
    println!(
        "Ablation: unit block size, Run1_Z10 fine level ({}^3, {:.0}% dense)",
        fine.dim(),
        fine.density() * 100.0
    );
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>12}",
        "unit", "strategy", "CR", "PSNR (dB)", "prep+comp s"
    );
    for unit in [2usize, 4, 8, 16] {
        if fine.dim() % unit != 0 || unit > fine.dim() {
            continue;
        }
        for strategy in [Strategy::NaST, Strategy::OpST, Strategy::AkdTree] {
            let cfg = TacConfig {
                unit,
                ..Default::default()
            };
            let t0 = std::time::Instant::now();
            let cl = compress_level_t(fine, strategy, eb, &cfg).unwrap();
            let secs = t0.elapsed().as_secs_f64();
            let rec = decompress_level_t::<f64>(&cl, fine.mask()).unwrap();
            let mut sum_sq = 0.0;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for i in fine.mask().iter_ones() {
                let e = fine.data()[i] - rec.data()[i];
                sum_sq += e * e;
                lo = lo.min(fine.data()[i]);
                hi = hi.max(fine.data()[i]);
            }
            let mse = sum_sq / fine.num_present() as f64;
            let psnr = 20.0 * (hi - lo).log10() - 10.0 * mse.log10();
            let cr = (fine.num_present() * 8) as f64 / cl.total_bytes() as f64;
            println!(
                "{unit:>6} {:>10} {cr:>12.1} {psnr:>12.2} {secs:>12.3}",
                format!("{strategy:?}")
            );
        }
    }
    println!("\nSmaller units remove empty space more exactly but multiply boundary\ncells and metadata; larger units keep prediction context but leave\nzeros inside blocks — the paper's 16^3-on-512^3 sits at ~1/32 of the dim.");
}
