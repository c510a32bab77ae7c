//! Confusion-matrix accounting: TP/FP/FN counters with precision, recall
//! and F1, as reported in Tables 1–3 of the paper.

use std::ops::AddAssign;

/// A TP/FP/FN counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// A fresh counter.
    pub fn new() -> Confusion {
        Confusion::default()
    }

    /// Build from counts.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Confusion {
        Confusion { tp, fp, fn_ }
    }

    /// Precision = TP / (TP + FP); 1.0 when nothing was reported.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall = TP / (TP + FN); 1.0 when there was nothing to find.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 = harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl AddAssign for Confusion {
    fn add_assign(&mut self, other: Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics() {
        let c = Confusion::from_counts(158, 13, 46);
        // The paper's CCC totals: precision 92.3%, recall 77.4%.
        assert!((c.precision() - 0.9239766).abs() < 1e-6);
        assert!((c.recall() - 0.7745098).abs() < 1e-6);
    }

    #[test]
    fn degenerate_cases() {
        let empty = Confusion::new();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        let all_missed = Confusion::from_counts(0, 0, 10);
        assert_eq!(all_missed.recall(), 0.0);
        assert_eq!(all_missed.f1(), 0.0);
    }

    #[test]
    fn accumulation() {
        let mut total = Confusion::new();
        total += Confusion::from_counts(1, 2, 3);
        total += Confusion::from_counts(4, 5, 6);
        assert_eq!(total, Confusion::from_counts(5, 7, 9));
    }
}
