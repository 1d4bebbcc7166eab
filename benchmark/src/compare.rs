//! `compare <base.json> <candidate.json>`: one row per end-to-end metric ×
//! workload with both medians, their ratio, the bound and a verdict; plus
//! each workload's failed-operation share.  Exits non-zero on any
//! `regressed` row or a larger failed share.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::report::read_json;
use crate::spec::{EndToEnd, Workload, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// Either side's own min–max spread is wider than the bound and the
    /// two ranges overlap: the runs cannot tell the sides apart.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// The agreement rule.  `exact` switches a quality metric to its absolute
/// same-seed tolerance.
pub fn verdict(metric: &EndToEnd, base: Side, candidate: Side, exact: bool) -> Verdict {
    // How much worse the candidate is, and how wide each side's own runs
    // spread, in the unit the bound is in.
    let (scale, bound) = match metric.same_seed_abs {
        Some(abs) if exact => (1.0, abs),
        _ => (base.median.abs().max(f64::MIN_POSITIVE), metric.bound),
    };
    let worse_by = if metric.higher_is_better {
        (base.median - candidate.median) / scale
    } else {
        (candidate.median - base.median) / scale
    };
    let spread = |side: Side| (side.max - side.min) / scale;
    let overlap = base.min <= candidate.max && candidate.min <= base.max;
    if overlap && (spread(base) > bound || spread(candidate) > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let entry = workload.get("metrics")?.get(metric)?;
    Some(Side {
        median: entry.get("median")?.as_f64()?,
        min: entry.get("min")?.as_f64()?,
        max: entry.get("max")?.as_f64()?,
    })
}

fn failed_share(workload: &Json) -> f64 {
    let number = |key| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    number("ops_failed") / number("ops_attempted").max(1.0)
}

/// Prints the comparison and returns whether the candidate holds up.
pub fn compare(base: &Json, candidate: &Json) -> bool {
    let same_seed = base.get("seed").is_some() && base.get("seed") == candidate.get("seed");
    let mut holds = true;
    println!(
        "{:<14} {:<16} {:>16} {:>16} {:>9} {:>8}  verdict",
        "workload", "metric", "base", "candidate", "cand/base", "bound"
    );
    for workload in Workload::ALL {
        let sides = |artifact: &Json| artifact.get("workloads")?.get(workload.name()).cloned();
        let (Some(b), Some(c)) = (sides(base), sides(candidate)) else {
            println!("{:<14} missing from one side", workload.name());
            holds = false;
            continue;
        };
        for metric in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
            let (Some(bs), Some(cs)) = (side(&b, metric.name), side(&c, metric.name)) else {
                println!(
                    "{:<14} {:<16} missing from one side",
                    workload.name(),
                    metric.name
                );
                holds = false;
                continue;
            };
            let exact = same_seed && metric.same_seed_abs.is_some();
            let outcome = verdict(metric, bs, cs, exact);
            holds &= outcome != Verdict::Regressed;
            let bound = match metric.same_seed_abs {
                Some(abs) if exact => format!("{abs} abs"),
                _ => format!("{:.0}%", metric.bound * 100.0),
            };
            println!(
                "{:<14} {:<16} {:>16.6} {:>16.6} {:>9.4} {:>8}  {}",
                workload.name(),
                metric.name,
                bs.median,
                cs.median,
                cs.median / bs.median,
                bound,
                outcome.label()
            );
        }
        let (base_failed, candidate_failed) = (failed_share(&b), failed_share(&c));
        println!(
            "{:<14} {:<16} {:>16.6} {:>16.6}",
            workload.name(),
            "failed_op_share",
            base_failed,
            candidate_failed
        );
        holds &= candidate_failed <= base_failed;
    }
    holds
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [base, candidate] = args else {
        return Err("compare takes two artifact paths".into());
    };
    let holds = compare(
        &read_json(Path::new(base))?,
        &read_json(Path::new(candidate))?,
    );
    Ok(if holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn flat(value: f64) -> Side {
        Side {
            median: value,
            min: value,
            max: value,
        }
    }

    #[test]
    fn verdicts_follow_the_agreement_rule() {
        // `wall_s` may worsen by a quarter.
        let wall = end_to_end("wall_s").unwrap();
        assert_eq!(
            verdict(wall, flat(10.0), flat(11.5), false),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(wall, flat(10.0), flat(13.0), false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(wall, flat(10.0), flat(7.0), false),
            Verdict::Improved
        );
        // A side spreading wider than the bound, ranges overlapping.
        let noisy = Side {
            median: 10.0,
            min: 8.5,
            max: 11.5,
        };
        assert_eq!(verdict(wall, noisy, flat(11.4), false), Verdict::Unresolved);
        // Same spread, but every candidate run is beyond the base's range.
        assert_eq!(verdict(wall, noisy, flat(13.0), false), Verdict::Regressed);

        let pc = end_to_end("pc_blast").unwrap();
        assert_eq!(
            verdict(pc, flat(0.95), flat(0.94), true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(pc, flat(0.95), flat(0.9495), true),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(pc, flat(0.95), flat(0.94), false),
            Verdict::WithinBound
        );
        assert_eq!(verdict(pc, flat(0.95), flat(0.99), true), Verdict::Improved);
    }

    fn artifact(wall_s: f64) -> Json {
        let metric = |value: f64, spread: f64| {
            Json::obj([
                ("median", Json::from(value)),
                ("min", Json::from(value * (1.0 - spread))),
                ("max", Json::from(value * (1.0 + spread))),
            ])
        };
        let workloads = Workload::ALL.map(|w| {
            let metrics = END_TO_END
                .iter()
                .filter(|m| m.applies_to(w))
                .map(|m| {
                    let entry = if m.name == "wall_s" {
                        metric(wall_s, 0.01)
                    } else {
                        metric(0.9, 0.0)
                    };
                    (m.name.to_string(), entry)
                })
                .collect();
            (
                w.name().to_string(),
                Json::obj([
                    ("ops_attempted", Json::from(100u64)),
                    ("ops_failed", Json::from(0u64)),
                    ("metrics", Json::Obj(metrics)),
                ]),
            )
        });
        Json::obj([
            ("seed", Json::from(1u64)),
            ("workloads", Json::Obj(workloads.into())),
        ])
    }

    #[test]
    fn a_file_agrees_with_itself_and_a_slower_wall_regresses() {
        let base = artifact(2.0);
        assert!(compare(&base, &base));
        // +20 % is inside `wall_s`'s bound, +30 % is not.
        assert!(compare(&base, &artifact(2.4)));
        assert!(!compare(&base, &artifact(2.6)));
        assert!(compare(&artifact(2.6), &base));
    }
}
