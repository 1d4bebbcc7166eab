//! Evaluation harness: metrics, experiment runners and the building blocks
//! used to regenerate every table and figure of the paper.
//!
//! * [`metrics`] — recall (pairs completeness), precision (pairs quality), F1;
//! * [`experiment`] — prepared datasets (blocking and the pipeline's
//!   `prepare` stage done once) and averaged experiment runs with run-time
//!   accounting.  Runs train through the pipeline's `train` stage and take
//!   its `MetaBlockingConfig`, so an experiment measures the code
//!   `MetaBlockingPipeline::run` executes;
//! * [`tables`] — per-dataset result rows and plain-text table rendering;
//! * [`report`] — probability histograms (Figure 12/13) and common-block
//!   distributions (Figures 15/16);
//! * [`scalability`] — the Dirty ER scalability workflow and the speedup
//!   measure of Figure 18.

pub mod experiment;
pub mod metrics;
pub mod report;
pub mod scalability;
pub mod tables;

pub use experiment::{default_config, AveragedResult, PreparedDataset, RunResult};
pub use metrics::Effectiveness;
pub use scalability::{speedup, ScalabilityPoint};
pub use tables::TableRow;
