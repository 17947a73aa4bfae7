//! Seeded inputs for the differential tests that hold both pcodec-style
//! encoders to the bytes of the encoders they replaced.

use tac_dtype::Element;

/// Page length [`Family::ExceptionsAtPageEdges`] plants its exceptions
/// around — PcoAns's; PcoLite's 1024-value pages divide it, so every
/// edge is also one of theirs.
const EDGE_PAGE: usize = 4096;

/// splitmix64, the generator every draw goes through.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The input families of the differential test; each is drawn per
/// `(length, seed)`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Family {
    Smooth,
    RandomWalk,
    Spiky,
    Constant,
    Ties,
    WideNoise,
    ExceptionsAtPageEdges,
    ExceptionRuns,
    AllExceptions,
}

impl Family {
    pub(crate) const ALL: [Family; 9] = [
        Family::Smooth,
        Family::RandomWalk,
        Family::Spiky,
        Family::Constant,
        Family::Ties,
        Family::WideNoise,
        Family::ExceptionsAtPageEdges,
        Family::ExceptionRuns,
        Family::AllExceptions,
    ];
}

/// Draws one stream and its bound. Values are built in `f64` and
/// narrowed, so the `f32` streams hold `f32`-exact inputs.
pub(crate) fn draw<T: Element>(family: Family, n: usize, state: &mut u64) -> (Vec<T>, f64) {
    let unit = |state: &mut u64| (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        3e38,
    ];
    let smooth = |i: usize, phase: f64| {
        ((i as f64) * 0.013 + phase).sin() * 40.0 + ((i as f64) * 0.0021).cos() * 3.0
    };
    let phase = unit(state) * 6.0;
    let (values, eb): (Vec<f64>, f64) = match family {
        Family::Smooth => ((0..n).map(|i| smooth(i, phase)).collect(), 1e-3),
        Family::RandomWalk => {
            // Step scale changes every few hundred values, so pages
            // hold many classes and the greedy merge has work to do.
            let mut v = 0.0;
            let mut scale = 1.0;
            let walk = (0..n)
                .map(|i| {
                    if i % 257 == 0 {
                        scale = 10f64.powi((splitmix64(state) % 7) as i32 - 3);
                    }
                    v += (unit(state) - 0.5) * scale;
                    v
                })
                .collect();
            (walk, 1e-4)
        }
        Family::Spiky => {
            let spikes = (0..n)
                .map(|i| {
                    if splitmix64(state) % 97 == 0 {
                        1e6 * unit(state)
                    } else {
                        1.0 + (i % 3) as f64 * 1e-3
                    }
                })
                .collect();
            (spikes, 1e-3)
        }
        Family::Constant => (vec![42.5 + phase.floor(); n], 1e-6),
        Family::Ties => {
            // Exact ties `(k + 0.5) * 2eb` of either sign, and both
            // zeros; `2eb = 0.5` keeps every one exact in `f32`.
            let ties = (0..n)
                .map(|_| match splitmix64(state) % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => {
                        let k = (splitmix64(state) % 4001) as f64 - 2000.0;
                        (k + 0.5) * 0.5
                    }
                })
                .collect();
            (ties, 0.25)
        }
        Family::WideNoise => {
            // Integer-valued noise up to 2^62 under `2eb = 1`: the
            // codes are the values, the deltas fill 58..=64 bits.
            let noise = (0..n)
                .map(|_| ((splitmix64(state) >> 2) as i64 - (1i64 << 61)) as f64 * 1.999)
                .collect();
            (noise, 0.5)
        }
        Family::ExceptionsAtPageEdges => {
            let mut v: Vec<f64> = (0..n).map(|i| smooth(i, phase)).collect();
            let mut k = 0;
            for page_start in (0..n).step_by(EDGE_PAGE) {
                let page_end = (page_start + EDGE_PAGE).min(n);
                for i in [page_start, page_end - 1] {
                    v[i] = specials[k % specials.len()];
                    k += 1;
                }
            }
            (v, 1e-3)
        }
        Family::ExceptionRuns => {
            let mut v: Vec<f64> = (0..n).map(|i| smooth(i, phase)).collect();
            let mut i = splitmix64(state) as usize % 50;
            while i < n {
                let run = 1 + splitmix64(state) as usize % 40;
                for slot in v.iter_mut().skip(i).take(run) {
                    *slot = specials[splitmix64(state) as usize % specials.len()];
                }
                i += run + 1 + splitmix64(state) as usize % 900;
            }
            (v, 1e-3)
        }
        // A bound so tight every quotient leaves the i64 lattice.
        Family::AllExceptions => ((0..n).map(|i| 1.0 + smooth(i, phase)).collect(), 1e-300),
    };
    (values.into_iter().map(T::from_f64).collect(), eb)
}
