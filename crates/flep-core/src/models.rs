//! Per-kernel performance-model training (§4.2): one ridge regression per
//! benchmark, trained on 100 randomly generated inputs.

use std::collections::HashMap;

use flep_perfmodel::RidgeModel;
use flep_sim_core::{SimRng, SimTime};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

/// Number of random training inputs per kernel (§4.2).
pub const TRAINING_SAMPLES: usize = 100;

/// The L2 penalty used for every kernel model.
pub const DEFAULT_LAMBDA: f64 = 1e-3;

/// A trained model per benchmark kernel.
#[derive(Debug, Clone)]
pub struct ModelStore {
    models: HashMap<BenchmarkId, RidgeModel>,
    seed: u64,
}

impl ModelStore {
    /// Trains all eight kernel models from a single seed.
    ///
    /// # Panics
    ///
    /// Panics only if ridge training fails, which cannot happen with a
    /// positive penalty.
    #[must_use]
    pub fn train(seed: u64) -> Self {
        let mut root = SimRng::seed_from(seed);
        let mut models = HashMap::new();
        for (i, id) in BenchmarkId::ALL.iter().enumerate() {
            let bench = Benchmark::get(*id);
            let mut rng = root.fork(i as u64 + 1);
            let mut features = Vec::with_capacity(TRAINING_SAMPLES);
            let mut targets = Vec::with_capacity(TRAINING_SAMPLES);
            let mut weights = Vec::with_capacity(TRAINING_SAMPLES);
            for _ in 0..TRAINING_SAMPLES {
                let (f, duration) = bench.random_invocation(&mut rng);
                features.push(f);
                let us = duration.as_us().max(1e-6);
                targets.push(us);
                // Weight 1/t^2: minimize relative error, so that the model
                // is equally accurate on short and long invocations.
                weights.push(1.0 / (us * us));
            }
            let model = RidgeModel::fit_weighted(&features, &targets, &weights, DEFAULT_LAMBDA)
                .expect("ridge training with positive lambda cannot fail");
            models.insert(*id, model);
        }
        ModelStore { models, seed }
    }

    /// The seed the store was trained from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The trained model for one kernel.
    ///
    /// # Panics
    ///
    /// Panics for an id not produced by [`ModelStore::train`] (the store
    /// always holds all eight).
    #[must_use]
    pub fn model(&self, id: BenchmarkId) -> &RidgeModel {
        self.models.get(&id).expect("store holds all benchmarks")
    }

    /// Predicted duration of a benchmark invocation on an input class,
    /// clamped to be non-negative.
    #[must_use]
    pub fn predict(&self, bench: &Benchmark, class: InputClass) -> SimTime {
        let us = self.model(bench.id).predict(bench.features(class));
        SimTime::from_us_f64(us.max(0.0))
    }

    /// Mean relative prediction error over `draws` fresh observations of
    /// the large and small inputs — the Fig. 7 metric.
    #[must_use]
    pub fn prediction_error(&self, bench: &Benchmark, rng: &mut SimRng, draws: usize) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for class in [InputClass::Large, InputClass::Small] {
            let predicted = self.model(bench.id).predict(bench.features(class));
            for _ in 0..draws {
                let actual = bench.observed_duration(class, rng).as_us();
                if actual > 0.0 {
                    total += ((predicted - actual) / actual).abs();
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_is_deterministic() {
        let a = ModelStore::train(7);
        let b = ModelStore::train(7);
        let bench = Benchmark::get(BenchmarkId::Mm);
        assert_eq!(
            a.predict(&bench, InputClass::Large),
            b.predict(&bench, InputClass::Large)
        );
    }

    #[test]
    fn predictions_are_in_the_right_ballpark() {
        let store = ModelStore::train(42);
        for id in BenchmarkId::ALL {
            let bench = Benchmark::get(id);
            let predicted = store.predict(&bench, InputClass::Large).as_us();
            let actual = bench.expected_standalone(InputClass::Large, 120).as_us();
            let err = (predicted - actual).abs() / actual;
            assert!(
                err < 0.25,
                "{id}: predicted {predicted:.0}us vs {actual:.0}us ({:.1}%)",
                err * 100.0
            );
        }
    }

    #[test]
    fn regular_kernels_predict_better_than_irregular_ones() {
        let store = ModelStore::train(42);
        let mut rng = SimRng::seed_from(99);
        let err = |id: BenchmarkId, rng: &mut SimRng| {
            store.prediction_error(&Benchmark::get(id), rng, 20)
        };
        let va = err(BenchmarkId::Va, &mut rng);
        let spmv = err(BenchmarkId::Spmv, &mut rng);
        assert!(
            va < spmv,
            "VA (regular, {va:.3}) must predict better than SPMV (irregular, {spmv:.3})"
        );
    }

    #[test]
    fn average_error_matches_paper_band() {
        // Paper: average ~6.9%, range ~2.7%..12.2%.
        let store = ModelStore::train(42);
        let mut rng = SimRng::seed_from(5);
        let errors: Vec<f64> = BenchmarkId::ALL
            .iter()
            .map(|&id| store.prediction_error(&Benchmark::get(id), &mut rng, 30))
            .collect();
        let avg = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(
            avg > 0.03 && avg < 0.12,
            "average prediction error {avg:.3} outside the paper band"
        );
    }
}
