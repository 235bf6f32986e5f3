//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! structured rows; the `src/bin/*.rs` binaries are thin wrappers that print
//! the rows as aligned tables/CSV. [`harness`] holds the shared plumbing:
//! synthetic datasets, model training to a checkpoint, layer surgery
//! (swapping a dense conv for a reuse conv), and the k-means reference
//! forward used by the Fig. 7 verification; batches come through the
//! facade's `DatasetSource`, the same adapter `adr train` reads. [`timing`]
//! serves the three ablation sweeps under `benches/` — it ranks
//! configurations and is not a performance record (that is `benchmark/`).
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig7` | Fig. 7 — k-means r_c–accuracy, single-input vs single-batch |
//! | `fig8` | Fig. 8 — LSH r_c–accuracy per sub-vector length and H |
//! | `table3` | Table III — accuracy with/without cluster reuse |
//! | `table4` | Table IV + §VI-B2 — training-time savings of strategies 1–3 |
//! | `reuse_rate` | §VI-B1 — reuse rate R growth over batches |

// Tests assert on values they just constructed; unwrap there is the idiom.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod experiments;
pub mod harness;
pub mod timing;
