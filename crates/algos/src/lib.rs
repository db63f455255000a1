//! # segrout-algos
//!
//! The optimization algorithms of
//! *Traffic Engineering with Joint Link Weight and Segment Optimization*
//! (CoNEXT'21):
//!
//! * [`dag_weights`] — Lemma 4.1: a weight setting whose ECMP flow uses
//!   exactly a given DAG (every DAG link lies on a shortest path to the
//!   target),
//! * [`mod@lwo_apx`] — Algorithm 1 (LWO-APX): the `O(n log n)`-approximate link
//!   weight optimization for single source–target demands, built on
//!   effective capacities,
//! * [`mod@heur_ospf`] — the Fortz–Thorup local search for general demand
//!   matrices (the paper's HeurOSPF subroutine \[11\]),
//! * [`mod@greedy_wpo`] — Algorithm 3 (GreedyWPO): greedy single-waypoint
//!   selection on top of a fixed weight setting,
//! * [`mod@joint_heur`] — Algorithm 2 (JOINT-Heur): the sequential joint
//!   optimization combining the two,
//! * [`mcf`] — a Garg–Könemann/Fleischer max-concurrent-flow FPTAS providing
//!   `OPT` lower bounds and the paper's "MCF Synthetic" demand scaling at
//!   sizes where the exact LP is too slow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag_weights;
pub mod greedy_wpo;
pub mod heur_ospf;
pub mod joint_heur;
pub mod lwo_apx;
pub mod mcf;
pub mod reopt;
pub mod serve;

pub use dag_weights::dag_realizing_weights;
pub use greedy_wpo::{greedy_wpo, greedy_wpo_robust, GreedyWpoConfig};
pub use heur_ospf::{
    heur_ospf, heur_ospf_failure_robust, heur_ospf_robust, HeurOspfConfig, Objective,
};
pub use joint_heur::{joint_heur, joint_heur_robust, JointHeurConfig, JointHeurResult};
pub use lwo_apx::{lwo_apx, LwoApxResult};
pub use mcf::{max_concurrent_flow, McfResult};
pub use reopt::{
    reoptimize_joint, reoptimize_unconstrained, reoptimize_weights, reoptimize_weights_on,
    round_deployed, weight_distance, EvaluatorReopt, ReoptimizeConfig, ReoptimizeResult,
};
pub use serve::{
    ServeConfig, ServeEvent, ServeResponse, ServeSession, ServeStats, ServeTier,
    MAX_EVENT_LINE_BYTES,
};
