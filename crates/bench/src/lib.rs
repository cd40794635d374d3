//! Experiment runners for the LIFEGUARD reproduction.
//!
//! Every table and figure of the paper's evaluation is an item of the
//! [`paper`] registry, run by the one `paper` binary (`cargo run --release
//! -p lg-bench --bin paper -- [ITEM…] [--full] [--out PATH]`); the logic
//! lives in the modules below so Table 1 can aggregate the individual
//! experiments and so unit tests can exercise reduced configurations.
//!
//! | Paper item | Module | `paper` item |
//! |---|---|---|
//! | Fig 1 | [`outage_figs`] | `fig1` |
//! | Fig 5 | [`outage_figs`] | `fig5` |
//! | Fig 6 | [`convergence`] | `fig6` |
//! | Table 1 | all | `table1` |
//! | Table 2 | [`loadmodel`] | `table2` |
//! | §2.2 | [`alternates`] | `sec22` |
//! | §5.1 | [`efficacy`] | `sec51` |
//! | §5.2 | [`disruptive`], [`convergence`] | `sec52` |
//! | §5.3 | [`accuracy`] | `sec53` |
//! | §5.4 | [`scalability`] | `sec54` |
//! | §4.2 end-to-end | [`impact`] | `impact` |
//! | filter deployment curve | [`degradation`] | `degradation` |
//! | full-table load curve | [`tableload`] | `tableload` |

pub mod accuracy;
pub mod alternates;
pub mod convergence;
pub mod degradation;
pub mod disruptive;
pub mod efficacy;
pub mod impact;
pub mod loadmodel;
pub mod outage_figs;
pub mod paper;
pub mod report;
pub mod scalability;
pub mod tableload;
pub mod worlds;
