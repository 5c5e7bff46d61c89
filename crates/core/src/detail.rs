//! Detailed predictions: value plus the provenance an optimizer can use
//! to judge how much to trust it.
//!
//! The paper's prediction (Fig. 3) returns only the block average. The
//! quadtree already stores enough to also report *how many* observations
//! back the estimate, their spread, and the resolution it was read at —
//! which is exactly what a cost-based optimizer wants when deciding, e.g.,
//! whether to hedge between plans.

use crate::error::MlqError;
use crate::tree::MemoryLimitedQuadtree;
use serde::{Deserialize, Serialize};

/// A prediction plus its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionDetail {
    /// The predicted cost (the block average, paper Eq. 3).
    pub value: f64,
    /// Number of observations in the answering block.
    pub count: u64,
    /// Population standard deviation of those observations
    /// (`sqrt(SSE/C)`, derived from the stored summaries).
    pub std_dev: f64,
    /// Tree depth of the answering block (0 = root; deeper = finer).
    pub depth: u8,
}

impl MemoryLimitedQuadtree {
    /// Like [`Self::predict`], but returns the answering block's
    /// provenance alongside the value. Uses the configured `β`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::predict`].
    pub fn predict_detail(&self, point: &[f64]) -> Result<Option<PredictionDetail>, MlqError> {
        self.predict_detail_with_beta(point, self.config().beta)
    }

    /// [`Self::predict_detail`] with an explicit `β`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::predict`].
    pub fn predict_detail_with_beta(
        &self,
        point: &[f64],
        beta: u64,
    ) -> Result<Option<PredictionDetail>, MlqError> {
        let grid = self.config().space.grid_point(point)?;
        let (answer, _) = self.predict_inner(&grid, beta);
        Ok(answer.map(|node| {
            let s = node.summary;
            PredictionDetail {
                value: s.avg(),
                count: s.count,
                std_dev: if s.count == 0 { 0.0 } else { (s.sse() / s.count as f64).sqrt() },
                depth: node.depth,
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InsertionStrategy, MlqConfig, Space};

    fn model() -> MemoryLimitedQuadtree {
        let config = MlqConfig::builder(Space::cube(2, 0.0, 1000.0).unwrap())
            .memory_budget(1 << 16)
            .strategy(InsertionStrategy::Eager)
            .build()
            .unwrap();
        MemoryLimitedQuadtree::new(config).unwrap()
    }

    #[test]
    fn empty_model_has_no_detail() {
        let m = model();
        assert_eq!(m.predict_detail(&[1.0, 1.0]).unwrap(), None);
    }

    #[test]
    fn detail_matches_plain_prediction() {
        let mut m = model();
        m.insert(&[1.0, 1.0], 4.0).unwrap();
        m.insert(&[2.0, 2.0], 6.0).unwrap();
        let d = m.predict_detail(&[1.5, 1.5]).unwrap().unwrap();
        let p = m.predict(&[1.5, 1.5]).unwrap().unwrap();
        assert_eq!(d.value, p);
    }

    #[test]
    fn detail_reports_spread_and_depth() {
        let mut m = model();
        // Two diverging values forced into the same block via beta.
        m.insert(&[1.0, 1.0], 0.0).unwrap();
        m.insert(&[900.0, 900.0], 10.0).unwrap();
        let d = m.predict_detail_with_beta(&[1.0, 1.0], 2).unwrap().unwrap();
        assert_eq!(d.count, 2);
        assert_eq!(d.value, 5.0);
        assert_eq!(d.depth, 0, "beta = 2 forces the root");
        assert!((d.std_dev - 5.0).abs() < 1e-9);

        // With beta = 1 the deep leaf answers: exact value, zero spread.
        let d = m.predict_detail_with_beta(&[1.0, 1.0], 1).unwrap().unwrap();
        assert_eq!(d.count, 1);
        assert_eq!(d.value, 0.0);
        assert_eq!(d.std_dev, 0.0);
        assert!(d.depth > 0);
    }

    #[test]
    fn detail_validates_points() {
        let m = model();
        assert!(m.predict_detail(&[f64::NAN, 0.0]).is_err());
        assert!(m.predict_detail(&[1.0]).is_err());
    }
}
