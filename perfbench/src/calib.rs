//! Host-speed calibration.
//!
//! The host's speed drifts by tens of percent within seconds and over
//! minutes (other tenants share its cores), and CPU time drifts with
//! wall time. So just before and just after each timed op the benchmark
//! times a fixed, program-independent slice of work, and scales the
//! op's wall time by how much slower or faster than
//! [`REFERENCE_SLICE_MS`] the slice ran on average.
//! A program change does not touch the slice, so it still shows in
//! full.
//!
//! The slice allocates, formats and hashes, like the program's hot
//! paths. On a 2-vCPU guest, scaling by it cut the spread of repeated
//! op times (quartile spread of 4-sample medians) from 17–49 % to
//! 4–28 %. A random-access slice over a 1 MiB table, or a pure
//! arithmetic one, tracked the drift barely at all.

use std::collections::HashMap;
use std::time::Instant;

/// What one slice takes at the reference host speed: its median on a
/// quiet 2-vCPU x86-64 guest, where scaled times read as wall times.
/// The same guest has measured up to 0.28 ms under load.
pub const REFERENCE_SLICE_MS: f64 = 0.11;

/// Slices per sample; a sample is their median, so one preemption
/// does not skew it.
const SLICES: usize = 3;
/// Allocate-format-hash rounds per slice.
const ROUNDS: u64 = 200;

fn slice_ms() -> f64 {
    let t0 = Instant::now();
    let mut total = 0usize;
    for i in 0..ROUNDS {
        let v: Vec<u64> = (0..(i % 64) + 8).map(|x| x.wrapping_mul(i)).collect();
        let text = format!("{:?}", &v[..4]);
        let index: HashMap<u64, usize> = v.iter().enumerate().map(|(j, &x)| (x, j)).collect();
        total += text.len() + index.len();
    }
    std::hint::black_box(total);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The median time of a few slices, in ms.
pub fn sample_ms() -> f64 {
    let times: Vec<f64> = (0..SLICES).map(|_| slice_ms()).collect();
    crate::stats::median(&times)
}

/// The factor that turns a wall time into reference time, from the
/// samples taken just before and just after it: above 1 on a host
/// running faster than the reference.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * REFERENCE_SLICE_MS / (before_ms + after_ms)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_is_positive_and_finite() {
        let s = super::scale(super::sample_ms(), super::sample_ms());
        assert!(s.is_finite() && s > 0.0);
        assert_eq!(super::scale(0.5, 1.5), super::REFERENCE_SLICE_MS);
    }
}
