//! # segrout-lp
//!
//! A self-contained linear-programming and mixed-integer-programming solver,
//! standing in for the Gurobi solver the paper used for its OPT / LWO / WPO /
//! Joint formulations.
//!
//! * [`problem`] — model builder: bounded (optionally integer) variables,
//!   sparse linear constraints, min/max objective.
//! * [`simplex`] — solve entry points and engine selection. The default
//!   engine is a **bounded-variable revised simplex** ([`revised`]): both
//!   variable bounds are handled implicitly (nonbasic-at-lower /
//!   nonbasic-at-upper), the basis inverse is a product-form eta file with
//!   periodic refactorization ([`basis`]), pricing is Dantzig with a Bland
//!   anti-cycling fallback, and the ratio test is a Harris-style two-pass.
//!   A warm-start API ([`simplex::solve_lp_from_basis`]) re-solves from a
//!   previous basis snapshot — the branch-and-bound driver uses it to start
//!   each child from its parent's basis.
//! * [`reference`] — the original dense two-phase tableau, kept as a
//!   correctness oracle (select it with [`LpEngine::Tableau`]); the
//!   differential suite in `crates/lp/tests/` asserts both engines agree.
//! * [`milp`] — best-bound branch-and-bound over the LP relaxation with
//!   closest-to-half branching, feasibility-verified incumbents, parent-basis
//!   warm starts, and node/time limits (mirroring how a commercial solver is
//!   used with a time limit on the paper's Abilene-scale Joint MILP).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod milp;
pub mod problem;
pub mod reference;
pub mod revised;
pub mod simplex;

pub use basis::Basis;
pub use milp::{solve_milp, MilpOptions, MilpResult, MilpStatus};
pub use problem::{Cmp, Problem, Sense, VarId};
pub use simplex::{
    solve_lp, solve_lp_from_basis, solve_lp_revised, solve_lp_with_bounds, solve_lp_with_deadline,
    solve_lp_with_engine, LpEngine, LpResult, LpStatus,
};
