//! Fixture: seeded `adr::determinism` violation.
//! Not compiled — scanned by the adr-check integration test.

/// OS-seeded entropy in library code: a violation.
pub fn random_projection_seed() -> u64 {
    let rng = thread_rng();
    rng.next_u64()
}

/// Seeded stream handed in by the caller: fine.
pub fn random_projection_seed_from(rng: &mut AdrRng) -> u64 {
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    /// Wall-clock reads in tests are fine.
    #[test]
    fn entropy_in_tests_is_fine() {
        let _ = std::time::SystemTime::now();
    }
}
