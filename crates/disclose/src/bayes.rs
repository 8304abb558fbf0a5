//! The Bayesian-privacy baseline (§4.2).
//!
//! Disclosure as belief shift: under a *tuple-independent* prior (every
//! potential tuple present independently with probability `p`), how far does
//! observing the view image move an adversary's probability that a tuple is
//! in the sensitive query's answer?
//!
//! This is the §4.2 strawman made concrete — it produces a number, but the
//! number is only meaningful if the prior is (§4.3's objection: priors on
//! human belief cannot be validated). The experiments use it to show how
//! verdicts swing with `p` while the prior-agnostic criteria stay put.

use qlogic::{Cq, ViewSet};

use crate::error::DiscloseError;
use crate::smallmodel::{Tuple, Universe};

/// Configuration of the tuple-independent prior.
#[derive(Debug, Clone, Copy)]
pub struct BayesConfig {
    /// Probability that any given potential tuple is present.
    pub tuple_prob: f64,
}

impl Default for BayesConfig {
    fn default() -> BayesConfig {
        BayesConfig { tuple_prob: 0.5 }
    }
}

/// The result of a belief-shift computation.
#[derive(Debug, Clone)]
pub struct BayesReport {
    /// The largest |posterior − prior| over tuples and view images.
    pub max_shift: f64,
    /// Prior probability of the max-shift tuple being in the answer.
    pub prior: f64,
    /// Posterior probability of that tuple given the max-shift image.
    pub posterior: f64,
    /// The tuple achieving the maximum shift.
    pub tuple: Option<Tuple>,
}

/// Evaluation budget per query per database.
const EVAL_LIMIT: usize = 4096;

/// Computes the maximum belief shift over the bounded universe.
///
/// Database weights follow the tuple-independent prior; relations must be
/// enumerated with `max_rows` equal to the full tuple count for the prior to
/// be exact (a truncated enumeration conditions on "at most k rows", which
/// the caller may intend, but it is no longer the pure independent model).
pub fn belief_shift(
    universe: &Universe,
    views: &ViewSet,
    sensitive: &Cq,
    cfg: BayesConfig,
) -> Result<BayesReport, DiscloseError> {
    let p = cfg.tuple_prob.clamp(0.0, 1.0);
    let dbs = universe.enumerate()?;
    // Total potential tuples across relations (for weights).
    let total_candidates: usize = universe
        .relations
        .iter()
        .map(|r| universe.domain.len().pow(r.arity as u32))
        .sum();

    let mut weights = Vec::with_capacity(dbs.len());
    let mut images: Vec<Vec<Vec<Tuple>>> = Vec::with_capacity(dbs.len());
    let mut answers: Vec<Vec<Tuple>> = Vec::with_capacity(dbs.len());
    let mut possible: Vec<Tuple> = Vec::new();

    for db in &dbs {
        let rows = db.atoms.len();
        let w = p.powi(rows as i32) * (1.0 - p).powi((total_candidates - rows) as i32);
        weights.push(w);
        images.push(
            views
                .views()
                .iter()
                .map(|v| {
                    let mut a = db.eval(v, EVAL_LIMIT);
                    a.sort();
                    a
                })
                .collect(),
        );
        let mut ans = db.eval(sensitive, EVAL_LIMIT);
        ans.sort();
        for t in &ans {
            if !possible.contains(t) {
                possible.push(t.clone());
            }
        }
        answers.push(ans);
    }

    let total_weight: f64 = weights.iter().sum();
    if total_weight <= 0.0 {
        return Ok(BayesReport {
            max_shift: 0.0,
            prior: 0.0,
            posterior: 0.0,
            tuple: None,
        });
    }

    // Group databases by image.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (first idx, members)
    for i in 0..dbs.len() {
        match groups
            .iter_mut()
            .find(|(first, _)| images[*first] == images[i])
        {
            Some((_, members)) => members.push(i),
            None => groups.push((i, vec![i])),
        }
    }

    let mut report = BayesReport {
        max_shift: 0.0,
        prior: 0.0,
        posterior: 0.0,
        tuple: None,
    };
    for t in &possible {
        let prior: f64 = (0..dbs.len())
            .filter(|&i| answers[i].contains(t))
            .map(|i| weights[i])
            .sum::<f64>()
            / total_weight;
        for (_, members) in &groups {
            let group_weight: f64 = members.iter().map(|&i| weights[i]).sum();
            if group_weight <= 0.0 {
                continue;
            }
            let posterior: f64 = members
                .iter()
                .filter(|&&i| answers[i].contains(t))
                .map(|&i| weights[i])
                .sum::<f64>()
                / group_weight;
            let shift = (posterior - prior).abs();
            if shift > report.max_shift {
                report = BayesReport {
                    max_shift: shift,
                    prior,
                    posterior,
                    tuple: Some(t.clone()),
                };
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallmodel::RelationSpec;
    use qlogic::{Atom, Term};

    fn named(mut cq: Cq, name: &str) -> Cq {
        cq.name = Some(name.into());
        cq
    }

    #[test]
    fn identity_view_maximal_shift() {
        let universe = Universe::with_int_domain(
            vec![RelationSpec {
                name: "R".into(),
                arity: 1,
                max_rows: 2,
            }],
            2,
        );
        let v = named(
            Cq::new(
                vec![Term::var("x")],
                vec![Atom::new("R", vec![Term::var("x")])],
                vec![],
            ),
            "All",
        );
        let s = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![],
        );
        let report = belief_shift(
            &universe,
            &ViewSet::new(vec![v]).unwrap(),
            &s,
            BayesConfig::default(),
        )
        .unwrap();
        // Seeing the view pins the answer exactly: posterior is 0 or 1 while
        // the prior is 1/2.
        assert!((report.max_shift - 0.5).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn blind_view_zero_shift() {
        let universe = Universe::with_int_domain(
            vec![
                RelationSpec {
                    name: "Secret".into(),
                    arity: 1,
                    max_rows: 2,
                },
                RelationSpec {
                    name: "Public".into(),
                    arity: 1,
                    max_rows: 2,
                },
            ],
            2,
        );
        let v = named(
            Cq::new(
                vec![Term::var("x")],
                vec![Atom::new("Public", vec![Term::var("x")])],
                vec![],
            ),
            "Pub",
        );
        let s = Cq::new(
            vec![Term::var("y")],
            vec![Atom::new("Secret", vec![Term::var("y")])],
            vec![],
        );
        let report = belief_shift(
            &universe,
            &ViewSet::new(vec![v]).unwrap(),
            &s,
            BayesConfig::default(),
        )
        .unwrap();
        assert!(report.max_shift < 1e-9, "{report:?}");
    }

    #[test]
    fn shift_depends_on_prior() {
        // The Bayesian verdict moves with the assumed prior — the §4.2
        // criticism in one assertion.
        let universe = Universe::with_int_domain(
            vec![RelationSpec {
                name: "R".into(),
                arity: 1,
                max_rows: 2,
            }],
            2,
        );
        let v = named(
            Cq::new(vec![], vec![Atom::new("R", vec![Term::var("x")])], vec![]),
            "NonEmpty",
        );
        let s = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![],
        );
        let views = ViewSet::new(vec![v]).unwrap();
        let lo = belief_shift(&universe, &views, &s, BayesConfig { tuple_prob: 0.1 })
            .unwrap()
            .max_shift;
        let hi = belief_shift(&universe, &views, &s, BayesConfig { tuple_prob: 0.9 })
            .unwrap()
            .max_shift;
        assert!((lo - hi).abs() > 0.05, "lo={lo}, hi={hi}");
    }
}
