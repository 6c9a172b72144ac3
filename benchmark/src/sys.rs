//! Process-level measurements and the hashing/seed primitives.

use std::fs;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100
/// on every Linux ABI this repo builds for; std offers no `sysconf`, so
/// it is fixed here and recorded in the README.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by the whole process so far.
pub fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields count from after `)`.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace();
    // After `)`: state is field 0, utime field 11, stime field 12.
    let utime = fields.nth(11).and_then(|v| v.parse::<f64>().ok());
    let stime = fields.next().and_then(|v| v.parse::<f64>().ok());
    (utime.unwrap_or(0.0) + stime.unwrap_or(0.0)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of the process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 1-minute load average, for the run header (a loaded box explains a
/// noisy repetition).
pub fn load_average_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the bit patterns of a mask, one 32-bit word per step.
/// Two masks fingerprint equal iff they are bit-identical (up to hash
/// collisions), including the sign of zero and NaN payloads.
pub fn fnv_mask(values: &[f32]) -> u64 {
    values.iter().fold(FNV_OFFSET, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(FNV_PRIME)
    })
}

/// Folds one more fingerprint into a running ledger hash.
pub fn fnv_fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// The ledger hash's starting value.
pub fn fnv_start() -> u64 {
    FNV_OFFSET
}

/// SplitMix64: derives the independent sub-seeds (scene, dataset, net
/// init, shuffle, fleet, …) from the one `--seed`.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> SeedStream {
        SeedStream(seed)
    }

    pub fn next_seed(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_bit_patterns() {
        assert_eq!(fnv_mask(&[0.5, 0.25]), fnv_mask(&[0.5, 0.25]));
        assert_ne!(fnv_mask(&[0.5, 0.25]), fnv_mask(&[0.25, 0.5]));
        assert_ne!(fnv_mask(&[0.0]), fnv_mask(&[-0.0]));
        assert_ne!(fnv_mask(&[]), fnv_mask(&[0.0]));
    }

    #[test]
    fn seed_stream_is_deterministic_and_spreads() {
        let mut a = SeedStream::new(2022);
        let mut b = SeedStream::new(2022);
        let xs: Vec<u64> = (0..4).map(|_| a.next_seed()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_seed()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
        assert_ne!(SeedStream::new(2023).next_seed(), xs[0]);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
