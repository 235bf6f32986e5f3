//! Exporter: JSON documents persisted through
//! `adr_nn::durable::write_atomic` so a crash mid-export can never leave a
//! truncated file behind (the same temp + fsync + rename discipline as
//! checkpoints; clippy's `disallowed_methods` bans the bare writes).

use crate::json::Json;
use adr_nn::durable::write_atomic;
use std::io;
use std::path::Path;

/// Atomically writes a pretty-rendered JSON document (the BENCH files).
///
/// # Errors
///
/// Propagates I/O failures from the atomic writer.
pub fn write_json(path: &Path, doc: &Json) -> io::Result<()> {
    write_atomic(path, doc.render_pretty().as_bytes())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("adr_obs_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn bench_documents_round_trip_through_disk() {
        let doc = Json::Obj(vec![("schema".to_string(), Json::Str("x/v1".to_string()))]);
        let path = temp_path("bench.json");
        write_json(&path, &doc).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        std::fs::remove_file(&path).ok();
    }
}
