//! Machine probe: STREAM-style triad bandwidth over arrays at least four
//! times the last-level cache, and multiply–add throughput from
//! independent register chains, both on one core, so kernel rates can be read against the
//! machine's roofline.

use std::hint::black_box;
use std::time::Instant;

pub struct Probe {
    pub llc_bytes: usize,
    pub array_bytes: usize,
    pub triad_gbs: f64,
    pub fma_gflops: f64,
}

/// Last-level cache size as the kernel reports it (32 MiB if unknown).
fn llc_bytes() -> usize {
    let parse = |s: &str| -> Option<usize> {
        let s = s.trim();
        let (num, mul) = match s.chars().last()? {
            'K' => (&s[..s.len() - 1], 1 << 10),
            'M' => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        num.parse::<usize>().ok().map(|v| v * mul)
    };
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
                .and_then(|s| parse(&s))
        })
        .max()
        .unwrap_or(32 << 20)
}

pub fn run() -> Probe {
    let llc = llc_bytes();
    // Three arrays whose total is at least four times the LLC.
    let n = (4 * llc).div_ceil(3 * 8);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = 0.5f64;
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        for ((ai, &bi), &ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    let triad_gbs = 3.0 * 8.0 * n as f64 / best / 1e9;

    // 16 independent chains cover the add latency; `x * m + y` (not
    // `mul_add`) so the baseline target needs no FMA unit.
    const CHAINS: usize = 16;
    const ITERS: usize = 400_000_000;
    let mut acc = [0.0f64; CHAINS];
    for (j, v) in acc.iter_mut().enumerate() {
        *v = j as f64 * 1e-3;
    }
    let m = black_box(0.999_999_9f64);
    let y = black_box(1e-7f64);
    let t = Instant::now();
    for _ in 0..ITERS / CHAINS {
        for v in acc.iter_mut() {
            *v = *v * m + y;
        }
    }
    black_box(acc);
    let secs = t.elapsed().as_secs_f64();
    let fma_gflops = (2 * ITERS) as f64 / secs / 1e9;
    Probe {
        llc_bytes: llc,
        array_bytes: 3 * 8 * n,
        triad_gbs,
        fma_gflops,
    }
}
