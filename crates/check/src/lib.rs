//! # segrout-check
//!
//! The correctness backstop of the `segrout` workspace: a pipeline-wide
//! **invariant validator** and a seeded **differential fuzzer** with case
//! shrinking and a replayable regression corpus.
//!
//! The optimizer stack has three fast paths — the parallel ECMP evaluator,
//! the incremental evaluation engine, and the warm-started revised simplex —
//! whose correctness rests on subtle tie-breaking and floating-point
//! contracts. This crate hunts interaction bugs between them automatically:
//!
//! * [`Validator`] checks any `(Network, demands, weights, waypoints)` state
//!   against the full routing-invariant suite: per-destination SP-DAG
//!   acyclicity and shortest-path optimality, ECMP even-split conservation
//!   at every node, waypoint-segment flow stitching, link-load
//!   non-negativity, MLU/Φ consistency between `Router`,
//!   `IncrementalEvaluator` and the parallel path, and heuristic-MLU ≥ MCF
//!   lower bound.
//! * [`Case`] is a self-contained fuzz scenario in a line-oriented text
//!   format (the topology/demand section plus an embedded
//!   `segrout-config v1` block), replayable from `tests/corpus/*.case`.
//! * [`fuzz_campaign`] generates seeded random scenarios (synthetic and
//!   embedded topologies × demand matrices × weight/waypoint perturbations
//!   × thread counts × LP engines × multi-matrix demand sets × serve-event
//!   streams), runs the full pipeline, validates every invariant,
//!   cross-checks small instances against the MILP oracle, and **shrinks**
//!   failures (drop demands, contract edges, round weights, drop matrices)
//!   to minimal reproducers.
//! * [`validate_robust`] checks a multi-matrix `(Network, DemandSet,
//!   weights, waypoints)` state: per-matrix MLU/Φ recomputation,
//!   incremental-engine agreement per matrix, worst-case/quantile
//!   aggregation identities, and monotonicity of the worst-case envelope.
//! * [`validate_sweep`] checks the failure-sweep engine: every swept
//!   `(failure pattern, demand scaling)` scenario is reproduced by a
//!   from-scratch evaluation of the edge-*deleted* topology (the ground
//!   truth the edge-disable probe claims to match bit-exactly), disconnect
//!   classification agrees with true reachability, and the worst-case
//!   certificate names a bottleneck link that actually attains the MLU.
//!
//! The cheap in-tree complement — `debug_assertions`-gated hooks at the
//! optimizer commit points — lives in `segrout_core::hooks` so the algorithm
//! crates can call it without a dependency cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod fuzz;
pub mod validator;

pub use case::{Case, CaseOutcome, EngineChoice};
pub use fuzz::{fuzz_campaign, FuzzConfig, FuzzFailure, FuzzReport};
pub use validator::{
    validate_robust, validate_sweep, ValidationReport, Validator, ValidatorConfig, Violation,
};
