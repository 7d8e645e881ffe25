//! Differential test of the search's branch-and-bound bound: the batched
//! bound [`SearchEngine::lower_bounds`] prices one microbatch rung per
//! mapping, and must equal — bitwise — the minimum over every variant the
//! search would try of the one-candidate bound
//! [`Estimator::compute_lower_bound`], with the same error text for a
//! mapping that does not fit the system. The efficiency models include a
//! table that peaks mid-ladder, where the cheapest rung is neither the
//! smallest nor the largest microbatch.

use amped_core::{
    AcceleratorSpec, EfficiencyModel, EngineOptions, EstimateCache, Estimator, Link,
    MicrobatchPolicy, MoeConfig, Parallelism, SystemSpec, TrainingConfig, TransformerModel,
    ZeroConfig, ZeroStage,
};
use amped_search::{enumerate_mappings, EnumerationOptions, SearchEngine};
use proptest::prelude::*;

/// The variants a search tries for `p`: every power-of-two microbatch size
/// up to the replica batch with tuning on, the mapping itself otherwise.
fn ladder(p: &Parallelism, global_batch: usize, tune: bool) -> Vec<Parallelism> {
    if !tune {
        return vec![*p];
    }
    let replica = (global_batch / p.dp()).max(1);
    let mut out = Vec::new();
    let mut ub = 1usize;
    while ub <= replica {
        out.push(p.with_microbatches(MicrobatchPolicy::Explicit(replica.div_ceil(ub))));
        ub *= 2;
    }
    out
}

/// `p`'s degrees under another ZeRO configuration and microbatch policy.
fn remap(p: &Parallelism, zero: ZeroConfig, policy: Option<MicrobatchPolicy>) -> Parallelism {
    let mut b = Parallelism::builder();
    b.tp(p.tp_intra(), p.tp_inter())
        .pp(p.pp_intra(), p.pp_inter())
        .dp(p.dp_intra(), p.dp_inter())
        .zero(zero);
    if let Some(policy) = policy {
        b.microbatches(policy);
    }
    b.build().expect("enumerated degrees stay valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_rung_bound_equals_the_scalar_minimum_over_the_ladder(
        (layers, heads, hidden_per_head) in (2usize..24, 0usize..3, 8usize..65),
        (seq_exp, vocab, batch_exp) in (6u32..10, 1000usize..60000, 4u32..11),
        (nodes_exp, per_node_exp, experts) in (0u32..3, 1u32..4, 0usize..5),
        (zero_stage, zero_overhead, policy) in (0usize..4, 0.0f64..0.5, 0usize..4),
        (recompute, imbalance, tune) in (0u8..2, 0u8..2, 0u8..2),
        (eff_kind, eff_lo, eff_hi, peak_exp) in (0u8..3, 0.05f64..0.4, 0.5f64..1.0, 1u32..6),
    ) {
        let heads = [4usize, 8, 16][heads];
        let mut builder = TransformerModel::builder("bound-m");
        builder
            .layers(layers)
            .hidden_size(heads * hidden_per_head)
            .heads(heads)
            .seq_len(1 << seq_exp)
            .vocab_size(vocab);
        if experts > 1 {
            builder.moe(MoeConfig::glam(experts));
        }
        let Ok(model) = builder.build() else { return Ok(()); };
        let accel = AcceleratorSpec::builder("bound-a")
            .frequency_hz(1e9)
            .cores(64)
            .mac_units(4, 256, 8)
            .nonlin_units(64, 4, 32)
            .memory(80e9, 2e12)
            .build()
            .expect("fixed accelerator is valid");
        let per_node = 1usize << per_node_exp;
        let Ok(system) = SystemSpec::new(
            1 << nodes_exp,
            per_node,
            Link::new(1e-6, 2.4e12),
            Link::new(1e-5, 2e11),
            per_node,
        ) else { return Ok(()); };
        let global_batch = 1usize << batch_exp;
        let training = TrainingConfig::new(global_batch, 3).expect("valid");
        let peak = (1u64 << peak_exp) as f64;
        let efficiency = match eff_kind {
            0 => EfficiencyModel::saturating(0.95, 4.0, eff_lo, eff_hi),
            1 => EfficiencyModel::Constant(eff_hi),
            // Rises to its peak mid-ladder, then falls: not monotone in ub.
            _ => EfficiencyModel::Table(vec![
                (1.0, eff_lo),
                (peak, eff_hi),
                (peak * 8.0, (eff_lo + eff_hi) / 2.0),
            ]),
        };
        let options = EngineOptions {
            activation_recompute: recompute == 1,
            stage_imbalance_correction: imbalance == 1,
            ..Default::default()
        };
        let tune = tune == 1;
        let zero = ZeroConfig::stage(
            [
                ZeroStage::None,
                ZeroStage::OptimizerStates,
                ZeroStage::Gradients,
                ZeroStage::Parameters,
            ][zero_stage],
            zero_overhead,
        );
        // With tuning off the mapping's own policy is the only variant.
        let policy = (policy > 0).then(|| MicrobatchPolicy::Explicit(1 << policy));

        let mut mappings: Vec<Parallelism> =
            enumerate_mappings(&system, &model, &EnumerationOptions::default())
                .iter()
                .map(|p| remap(p, zero, policy))
                .collect();
        prop_assert!(!mappings.is_empty());
        // A mapping that does not fit the system: intra degrees of twice
        // the node size.
        let misfit = Parallelism::builder().tp(per_node * 2, 1).build().expect("valid degrees");
        mappings.insert(mappings.len() / 2, misfit);

        let engine = SearchEngine::new(&model, &accel, &system)
            .with_efficiency(efficiency.clone())
            .with_engine_options(options)
            .with_microbatch_tuning(tune);
        let bounds = engine.lower_bounds(&mut EstimateCache::new(), &mappings, &training);
        prop_assert_eq!(bounds.len(), mappings.len());

        let mut cache = EstimateCache::new();
        for (p, batched) in mappings.iter().zip(&bounds) {
            let mut reference: Result<f64, String> = Ok(f64::INFINITY);
            for variant in ladder(p, global_batch, tune) {
                let scalar = Estimator::new(&model, &accel, &system, &variant)
                    .with_efficiency(efficiency.clone())
                    .with_options(options)
                    .compute_lower_bound(&mut cache, &training);
                match scalar {
                    Ok(lb) => reference = reference.map(|r| r.min(lb.get())),
                    Err(e) => {
                        reference = Err(e.to_string());
                        break;
                    }
                }
            }
            match (batched, reference) {
                (Ok(b), Ok(r)) => prop_assert!(
                    b.to_bits() == r.to_bits(),
                    "batched bound {} != scalar ladder minimum {} for {:?} under {:?}",
                    b, r, p, efficiency
                ),
                (Err(b), Err(r)) => prop_assert_eq!(b.to_string(), r),
                (b, r) => prop_assert!(false, "outcome mismatch for {:?}: {:?} vs {:?}", p, b, r),
            }
        }
        prop_assert!(bounds.iter().filter(|b| b.is_err()).count() == 1);
    }
}
