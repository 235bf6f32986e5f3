//! Crash-safe file persistence for checkpoint data.
//!
//! A checkpoint that can be torn by a crash is worse than none: a resumed
//! run would read half-written state and either fail or silently diverge.
//! Every checkpoint write in the workspace therefore goes through
//! [`write_atomic`]: the bytes land in a sibling temp file, are fsynced,
//! and are moved over the destination with an atomic rename, so the
//! destination path always holds either the complete old snapshot or the
//! complete new one. Clippy's `disallowed_methods` (root `clippy.toml`)
//! denies bare `File::create`/`fs::write` in every crate and target, so
//! the one `#[expect]` below keeps this the only write path.
//!
//! Payload integrity is covered separately by CRC32 section checksums
//! ([`crc32`]) verified on load, catching bit rot and partial copies that
//! the rename protocol cannot see.

use std::ffi::OsString;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// computed at compile time so the workspace stays dependency-free.
const CRC_TABLE: [u32; 256] = build_crc_table();

// `i` ranges over 0..256, which always fits in the u32 seed.
#[allow(clippy::cast_possible_truncation)]
const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 checksum (IEEE) of `bytes`, as used by zip/png/ethernet.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC_TABLE[idx];
    }
    !crc
}

/// Writes `bytes` to `path` crash-safely: temp file + fsync + atomic
/// rename, then a best-effort fsync of the parent directory so the rename
/// itself is durable. After a crash at any point, `path` holds either the
/// previous complete contents or the new complete contents — never a
/// mixture.
#[expect(
    clippy::disallowed_methods,
    reason = "durable-io: the one bare create, of the temp file that is fsynced and renamed over `path`"
)]
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = OsString::from(path.as_os_str());
    tmp_name.push(".tmp");
    let tmp = Path::new(&tmp_name);
    {
        let mut file = File::create(tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    if let Err(e) = std::fs::rename(tmp, path) {
        // Don't leave the orphaned temp file behind on failure.
        let _ = std::fs::remove_file(tmp);
        return Err(e);
    }
    // Durability of the rename requires the directory entry to reach disk.
    // Not all platforms allow opening a directory for sync; best effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Injection point for deterministic checkpoint-I/O faults. The trainer's
/// fault harness implements this; production code uses [`NoFaults`].
pub trait IoFault {
    /// Returns an error to inject in place of the next write attempt, or
    /// `None` to let the real write proceed.
    fn inject_io_error(&mut self) -> Option<io::Error>;
}

/// The no-op fault source used outside fault-injection tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl IoFault for NoFaults {
    fn inject_io_error(&mut self) -> Option<io::Error> {
        None
    }
}

/// Bounded retry with exponential backoff for checkpoint writes.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts before giving up (≥ 1).
    pub max_attempts: usize,
    /// Sleep before the second attempt; doubles each further attempt.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3, backoff: Duration::from_millis(10) }
    }
}

/// [`write_atomic`] with bounded retry + exponential backoff, and a fault
/// hook consulted before each attempt. Returns the last error when every
/// attempt fails; the destination file is untouched in that case.
pub fn write_atomic_retry(
    path: &Path,
    bytes: &[u8],
    policy: RetryPolicy,
    faults: &mut dyn IoFault,
) -> io::Result<()> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            let shift = u32::try_from(attempt - 1).unwrap_or(16).min(16);
            std::thread::sleep(policy.backoff * (1u32 << shift));
        }
        let result = match faults.inject_io_error() {
            Some(err) => Err(err),
            None => write_atomic(path, bytes),
        };
        match result {
            Ok(()) => return Ok(()),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("write failed with no recorded error")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Published IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"adaptive deep reuse".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn write_atomic_round_trips_and_cleans_temp() {
        let path = std::env::temp_dir().join("adr_durable_roundtrip.bin");
        write_atomic(&path, b"hello checkpoint").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello checkpoint");
        let mut tmp = OsString::from(path.as_os_str());
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "temp file left behind");
        write_atomic(&path, b"second version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version");
        std::fs::remove_file(&path).ok();
    }

    struct FailN(usize);
    impl IoFault for FailN {
        fn inject_io_error(&mut self) -> Option<io::Error> {
            if self.0 > 0 {
                self.0 -= 1;
                Some(io::Error::other("injected fault"))
            } else {
                None
            }
        }
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let path = std::env::temp_dir().join("adr_durable_retry.bin");
        let policy = RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) };
        write_atomic_retry(&path, b"survived", policy, &mut FailN(2)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"survived");
        std::fs::remove_file(&path).ok();
    }

    /// Records every injection consultation, failing each one — the probe
    /// for attempt counts and event ordering under a persistent fault.
    struct RecordingFault {
        consultations: usize,
    }
    impl IoFault for RecordingFault {
        fn inject_io_error(&mut self) -> Option<io::Error> {
            self.consultations += 1;
            Some(io::Error::other(format!("persistent fault, attempt {}", self.consultations)))
        }
    }

    #[test]
    fn persistent_fault_exhausts_exactly_max_attempts_with_backoff() {
        let path = std::env::temp_dir().join("adr_durable_backoff.bin");
        write_atomic(&path, b"pre-fault snapshot").unwrap();
        let mut fault = RecordingFault { consultations: 0 };
        let policy = RetryPolicy { max_attempts: 4, backoff: Duration::from_millis(2) };
        let started = std::time::Instant::now();
        let err = write_atomic_retry(&path, b"never lands", policy, &mut fault).unwrap_err();
        let elapsed = started.elapsed();
        // Every attempt consulted the fault hook exactly once, in order,
        // and the returned error is the *last* attempt's.
        assert_eq!(fault.consultations, 4);
        assert!(err.to_string().contains("attempt 4"), "got: {err}");
        // Backoff doubles before attempts 2..=4: 2 + 4 + 8 ms minimum.
        assert!(elapsed >= Duration::from_millis(14), "slept only {elapsed:?}");
        // The previous snapshot survives a fully failed write.
        assert_eq!(std::fs::read(&path).unwrap(), b"pre-fault snapshot");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_max_attempts_clamps_to_one_attempt() {
        let path = std::env::temp_dir().join("adr_durable_clamp.bin");
        let mut fault = RecordingFault { consultations: 0 };
        let policy = RetryPolicy { max_attempts: 0, backoff: Duration::from_millis(1) };
        let err = write_atomic_retry(&path, b"x", policy, &mut fault);
        assert!(err.is_err());
        assert_eq!(fault.consultations, 1, "clamped to exactly one attempt");
        // And with no fault, the single attempt succeeds.
        let policy = RetryPolicy { max_attempts: 0, backoff: Duration::from_millis(1) };
        write_atomic_retry(&path, b"landed", policy, &mut NoFaults).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"landed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retry_gives_up_and_preserves_old_file() {
        let path = std::env::temp_dir().join("adr_durable_giveup.bin");
        write_atomic(&path, b"old good state").unwrap();
        let policy = RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) };
        let err = write_atomic_retry(&path, b"never lands", policy, &mut FailN(99));
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old good state");
        std::fs::remove_file(&path).ok();
    }
}
