//! Fixture: seeded `adr::durable_io` violation.
//! Not compiled — scanned by the adr-check integration test.

/// Bare write with no temp + fsync + rename protocol: a violation — a
/// crash mid-write leaves a torn checkpoint at `path`.
pub fn save_snapshot_torn(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    std::io::Write::write_all(&mut file, bytes)
}

/// Routed through the atomic helper: fine.
pub fn save_snapshot_durable(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    crate::durable::write_atomic(path, bytes)
}
